//! Multi-session concurrency: warm-query scaling across session counts
//! and cross-session tape batching vs per-session FIFO staging.
//!
//! Throughput is measured in **simulated seconds** (the shared
//! [`SimClock`]), not host wall-clock: each session charges its disk-cache
//! reads to a private clock lane and the epoch ends at the slowest lane,
//! so N sessions that overlap perfectly finish the same query count in
//! ~1/N the simulated time. This keeps the benchmark deterministic and
//! meaningful on any host core count.
//!
//! * **warm** — one archived object staged onto the disk cache; `QUERIES`
//!   tile queries dealt round-robin (`session_streams`) across 1, 4 and
//!   16 sessions; reports simulated queries/s per session count and the
//!   16-over-1 speedup.
//! * **cold** — 4 objects on 4 media, 1 drive, 4 sessions stepping
//!   through the objects in the same order (every session wants medium
//!   *j* at step *j*, each its own super-tile). Per-session FIFO staging
//!   re-mounts the medium for every session; the cross-session batcher
//!   merges the four requests per step into one scheduled sweep. Reports
//!   media exchanges for both modes.
//!
//! Pass `--json <path>` to write machine-readable results
//! (`BENCH_concurrency.json` via `scripts/bench_concurrency.sh`).

use std::sync::Barrier;
use std::time::{Duration, Instant};

use heaven_array::{CellType, MDArray, Minterval, Point, Tile, Tiling};
use heaven_arraydb::ArrayDb;
use heaven_core::{ExportMode, Heaven, HeavenConfig, Session};
use heaven_rdbms::Database;
use heaven_tape::{DeviceProfile, DiskProfile, SimClock, TapeLibrary};
use heaven_workload::session_streams;

/// Edge of one square tile in cells.
const TILE_EDGE: i64 = 32;
/// Tiles per axis of every object (GRID^2 tiles, each its own super-tile).
const GRID: i64 = 8;
/// Warm queries in total, dealt across the sessions.
const QUERIES: usize = 128;
/// Session counts swept in the warm phase.
const WORKERS: [usize; 3] = [1, 4, 16];

fn mi(b: &[(i64, i64)]) -> Minterval {
    Minterval::new(b).unwrap()
}

/// The region of tile index `t` (0..GRID*GRID) of any object.
fn tile_region(t: i64) -> Minterval {
    let (gx, gy) = (t % GRID, t / GRID);
    mi(&[
        (gx * TILE_EDGE, (gx + 1) * TILE_EDGE - 1),
        (gy * TILE_EDGE, (gy + 1) * TILE_EDGE - 1),
    ])
}

/// Build `objects` archived objects, each GRID x GRID tiles with one
/// super-tile per tile, each object on its own medium.
fn build(objects: usize, drives: usize, batching: bool) -> (Heaven, Vec<u64>) {
    let clock = SimClock::new();
    let db = Database::new(DiskProfile::scsi2003(), clock.clone(), 4096);
    let mut adb = ArrayDb::create(db).unwrap();
    adb.create_collection("bench", CellType::F32, 2).unwrap();
    let dom = mi(&[(0, GRID * TILE_EDGE - 1), (0, GRID * TILE_EDGE - 1)]);
    let mut oids = Vec::new();
    for o in 0..objects {
        let arr = MDArray::generate(dom.clone(), CellType::F32, |p: &Point| {
            (o as i64 * 1_000_000 + p.coord(0) * 997 + p.coord(1)) as f64
        });
        oids.push(
            adb.insert_object(
                "bench",
                &arr,
                Tiling::Regular {
                    tile_shape: vec![TILE_EDGE as u64, TILE_EDGE as u64],
                },
            )
            .unwrap(),
        );
    }
    let tile_encoded = (Tile::header_len(2) + (TILE_EDGE * TILE_EDGE) as usize * 4) as u64;
    let config = HeavenConfig {
        supertile_bytes: Some(tile_encoded),
        mem_cache_bytes: 0, // every warm query exercises the striped st-cache
        medium_per_object: true,
        cache_shards: 16,
        cross_session_batching: batching,
        ..HeavenConfig::default()
    };
    let lib = TapeLibrary::new(DeviceProfile::ibm3590(), drives, clock);
    let mut heaven = Heaven::new(adb, lib, config);
    for &oid in &oids {
        heaven.export_object(oid, ExportMode::Tct).unwrap();
    }
    (heaven, oids)
}

struct WarmResult {
    workers: usize,
    sim_elapsed_s: f64,
    sim_queries_per_s: f64,
    host_ms: f64,
}

/// Run the warm workload with `workers` concurrent sessions and report
/// simulated throughput.
fn warm_pass(workers: usize) -> WarmResult {
    let (heaven, oids) = build(1, 2, true);
    let oid = oids[0];
    // Stage every super-tile onto the disk cache (cold, shared clock).
    heaven
        .session()
        .fetch_region(
            oid,
            &mi(&[(0, GRID * TILE_EDGE - 1), (0, GRID * TILE_EDGE - 1)]),
        )
        .unwrap();
    let queries: Vec<Minterval> = (0..QUERIES)
        .map(|q| tile_region((q as i64 * 7) % (GRID * GRID)))
        .collect();
    let streams = session_streams(&queries, workers);
    // Fork every lane at t0, before any session runs (a later fork would
    // start from a shared clock already advanced by a finished peer).
    let sessions: Vec<Session> = streams.iter().map(|_| heaven.session()).collect();
    let t0 = heaven.clock().now_s();
    let host = Instant::now();
    std::thread::scope(|s| {
        for (session, stream) in sessions.into_iter().zip(&streams) {
            s.spawn(move || {
                for region in stream {
                    std::hint::black_box(session.fetch_region(oid, region).unwrap());
                }
            });
        }
    });
    let host_ms = host.elapsed().as_secs_f64() * 1e3;
    let sim_elapsed_s = heaven.clock().now_s() - t0;
    WarmResult {
        workers,
        sim_elapsed_s,
        sim_queries_per_s: QUERIES as f64 / sim_elapsed_s,
        host_ms,
    }
}

struct ColdResult {
    mode: &'static str,
    mounts: u64,
    sim_elapsed_s: f64,
}

/// Cold mixed workload: 4 sessions step through 4 single-medium objects
/// in the same order on a 1-drive library; each session touches its own
/// super-tiles. Returns the media exchanges the run needed.
fn cold_pass(batching: bool) -> ColdResult {
    let objects = 4usize;
    let workers = 4usize;
    let steps = 8usize;
    let (mut heaven, oids) = build(objects, 1, batching);
    let mounts_before = heaven.tape_stats().mounts;
    heaven.set_batch_window(Duration::from_millis(25));
    let heaven = heaven;
    let t0 = heaven.clock().now_s();
    let barrier = Barrier::new(workers);
    std::thread::scope(|s| {
        for w in 0..workers {
            let heaven = &heaven;
            let oids = &oids;
            let barrier = &barrier;
            s.spawn(move || {
                let session = heaven.session();
                barrier.wait();
                for j in 0..steps {
                    let region = tile_region((w * steps + j) as i64 % (GRID * GRID));
                    session.fetch_region(oids[j % oids.len()], &region).unwrap();
                }
            });
        }
    });
    ColdResult {
        mode: if batching { "batched" } else { "fifo" },
        mounts: heaven.tape_stats().mounts - mounts_before,
        sim_elapsed_s: heaven.clock().now_s() - t0,
    }
}

fn main() {
    let mut json_path = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--json" {
            json_path = args.next();
        }
    }

    let warm: Vec<WarmResult> = WORKERS.iter().map(|&w| warm_pass(w)).collect();
    let speedup = warm[0].sim_elapsed_s / warm.last().unwrap().sim_elapsed_s;
    for r in &warm {
        println!(
            "concurrency/warm/{:>2} sessions  {:>8.4} sim-s  {:>9.1} sim-queries/s  ({:.1} host ms)",
            r.workers, r.sim_elapsed_s, r.sim_queries_per_s, r.host_ms
        );
    }
    println!("concurrency/warm speedup 16-over-1: {speedup:.2}x (simulated)");

    let fifo = cold_pass(false);
    let batched = cold_pass(true);
    for r in [&fifo, &batched] {
        println!(
            "concurrency/cold/{:<8} {:>3} media exchanges  {:>8.2} sim-s",
            r.mode, r.mounts, r.sim_elapsed_s
        );
    }
    println!(
        "concurrency/cold exchanges saved by batching: {} of {}",
        fifo.mounts.saturating_sub(batched.mounts),
        fifo.mounts
    );

    if let Some(path) = json_path {
        let mut out = String::from("{\n  \"bench\": \"concurrency\",\n");
        out.push_str(
            "  \"model\": \"simulated time: sessions charge disk-cache reads to private clock \
             lanes; the epoch ends at the slowest lane\",\n",
        );
        out.push_str(&format!(
            "  \"warm\": {{\n    \"queries\": {QUERIES},\n    \"sessions\": [\n"
        ));
        for (i, r) in warm.iter().enumerate() {
            out.push_str(&format!(
                "      {{\"workers\": {}, \"sim_elapsed_s\": {:.6}, \"sim_queries_per_s\": \
                 {:.1}, \"host_ms\": {:.1}}}{}\n",
                r.workers,
                r.sim_elapsed_s,
                r.sim_queries_per_s,
                r.host_ms,
                if i + 1 < warm.len() { "," } else { "" },
            ));
        }
        out.push_str(&format!(
            "    ],\n    \"speedup_16_over_1\": {speedup:.2}\n  }},\n"
        ));
        out.push_str(&format!(
            "  \"cold\": {{\n    \"fifo_mounts\": {},\n    \"batched_mounts\": {},\n    \
             \"exchanges_saved\": {}\n  }}\n}}\n",
            fifo.mounts,
            batched.mounts,
            fifo.mounts.saturating_sub(batched.mounts),
        ));
        std::fs::write(&path, out).unwrap();
        println!("wrote {path}");
    }
}
