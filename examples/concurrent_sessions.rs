//! Multi-session query execution: N worker threads querying one archive
//! concurrently through shared [`heaven::core::Session`]s.
//!
//! ```sh
//! cargo run --release --example concurrent_sessions -- --workers 8
//! ```
//!
//! Builds a small climate archive (4 objects, one tape medium each) and
//! deals a mixed query stream across `--workers` sessions of the
//! `Send + Sync` system. Each session charges
//! its overlappable work (disk-cache reads) to a private simulated clock
//! lane; cold super-tile fetches funnel through the cross-session batcher
//! so sessions wanting the same medium share one mount, and duplicate
//! requests coalesce into a single tape read.

use std::time::Duration;

use heaven::array::{CellType, MDArray, Minterval, Tiling};
use heaven::core::{ExportMode, HeavenConfig, Session};
use heaven::tape::DeviceProfile;
use heaven::workload::{selectivity_queries, session_streams};

fn main() {
    let mut workers = 4usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--workers" {
            if let Some(n) = args.next().and_then(|v| v.parse().ok()) {
                workers = n;
            }
        }
    }
    let workers = workers.max(1);

    // 1. Build and archive single-threaded: 4 objects, one medium each.
    let mut heaven = heaven::open(
        DeviceProfile::ibm3590(),
        2,
        HeavenConfig {
            supertile_bytes: Some(64 << 10),
            medium_per_object: true,
            cache_shards: 16,
            mem_cache_bytes: 4 << 20,
            ..HeavenConfig::default()
        },
    );
    heaven
        .arraydb_mut()
        .create_collection("climate", CellType::F32, 2)
        .expect("create collection");
    let domain = Minterval::new(&[(0, 255), (0, 255)]).unwrap();
    let mut oids = Vec::new();
    for o in 0..4i64 {
        let field = MDArray::generate(domain.clone(), CellType::F32, |p| {
            (o * 100) as f64 + (p.coord(0) as f64 / 25.0).sin() * 8.0 + p.coord(1) as f64 * 0.02
        });
        let oid = heaven
            .arraydb_mut()
            .insert_object(
                "climate",
                &field,
                Tiling::Regular {
                    tile_shape: vec![32, 32],
                },
            )
            .expect("insert");
        heaven.export_object(oid, ExportMode::Tct).expect("export");
        oids.push(oid);
    }
    heaven.clear_caches();

    // 2. Serve sessions: `Heaven` is Send + Sync, sessions only need &self.
    heaven.set_batch_window(Duration::from_millis(10));
    let heaven = heaven;

    // 3. Deal a mixed query stream across the worker sessions.
    let queries: Vec<(u64, Minterval)> = selectivity_queries(&domain, 0.05, 64, 42)
        .into_iter()
        .enumerate()
        .map(|(i, q)| (oids[i % oids.len()], q))
        .collect();
    let streams = session_streams(&queries, workers);
    let sessions: Vec<Session> = streams.iter().map(|_| heaven.session()).collect();
    let t0 = heaven.clock().now_s();
    std::thread::scope(|s| {
        for (w, (session, stream)) in sessions.into_iter().zip(&streams).enumerate() {
            s.spawn(move || {
                for (oid, region) in stream {
                    session.fetch_region(*oid, region).expect("fetch");
                }
                println!(
                    "session {w:>2}: {:>3} queries, lane ended at {:>8.2} sim-s",
                    stream.len(),
                    session.now_s()
                );
            });
        }
    });

    // 4. The shared clock rejoined every lane: makespan = slowest session.
    let metrics = heaven.metrics();
    println!("\n{} sessions over {} queries", workers, queries.len());
    println!("simulated makespan:   {:.2} s", heaven.clock().now_s() - t0);
    println!(
        "tape fetches:         {} ({} coalesced away, {} batches)",
        metrics.counter("heaven.st_tape_fetches").get(),
        metrics.counter("sched.coalesced_fetches").get(),
        metrics.counter("sched.batches").get(),
    );
    println!("tape activity:        {}", heaven.tape_stats());
    println!(
        "st-cache:             {} | tile cache: {}",
        heaven.st_cache_stats(),
        heaven.tile_cache_stats()
    );
}
