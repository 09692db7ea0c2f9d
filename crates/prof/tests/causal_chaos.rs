//! The PR-10 acceptance run: 8 chaos-stressed sessions produce a trace
//! whose span links let `critical_path` attribute every query's latency
//! — local vs. queue vs. service — exactly, following coalescing edges
//! across sessions to the shared `sched.batch` fetch that staged the
//! bytes. The same run must populate the queue/service histograms, trip
//! the stall watchdog (drive-failure chaos forces requeues past the
//! one-window threshold), and surface trace exemplars on the query
//! latency histogram's Prometheus exposition.

use std::collections::BTreeSet;
use std::sync::Barrier;
use std::time::Duration;

use heaven_array::{CellType, MDArray, Minterval, Point, Tile, Tiling};
use heaven_arraydb::ArrayDb;
use heaven_core::{ExportMode, Heaven, HeavenConfig};
use heaven_obs::TraceConfig;
use heaven_prof::critical::{critical_path, render, to_json};
use heaven_prof::timeline::utilization_timeline;
use heaven_prof::trace::{load_trace, ProfKind};
use heaven_rdbms::Database;
use heaven_tape::{DeviceProfile, DiskProfile, FaultConfig, SimClock, TapeLibrary};

const TILE_EDGE: i64 = 32;
const GRID: i64 = 4;
const WORKERS: usize = 8;

fn mi(b: &[(i64, i64)]) -> Minterval {
    Minterval::new(b).unwrap()
}

fn tile_region(t: i64) -> Minterval {
    let (gx, gy) = (t % GRID, t / GRID);
    mi(&[
        (gx * TILE_EDGE, (gx + 1) * TILE_EDGE - 1),
        (gy * TILE_EDGE, (gy + 1) * TILE_EDGE - 1),
    ])
}

/// Two exported objects on their own media, one super-tile per tile,
/// ring tracing on, stall watchdog armed at one drain window.
fn build() -> (Heaven, Vec<u64>) {
    let clock = SimClock::new();
    let db = Database::new(DiskProfile::scsi2003(), clock.clone(), 4096);
    let mut adb = ArrayDb::create(db).unwrap();
    adb.create_collection("causal", CellType::F32, 2).unwrap();
    let dom = mi(&[(0, GRID * TILE_EDGE - 1), (0, GRID * TILE_EDGE - 1)]);
    let mut oids = Vec::new();
    for o in 0..2 {
        let arr = MDArray::generate(dom.clone(), CellType::F32, |p: &Point| {
            (o * 1_000_000 + p.coord(0) * 1000 + p.coord(1)) as f64
        });
        oids.push(
            adb.insert_object(
                "causal",
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
        mem_cache_bytes: 0,
        medium_per_object: true,
        cache_shards: 8,
        cross_session_batching: true,
        dual_copy: true,
        stall_window_mult: 1.0,
        trace: TraceConfig::ring(1 << 16),
        ..HeavenConfig::default()
    };
    let lib = TapeLibrary::new(DeviceProfile::ibm3590(), 2, clock);
    let mut heaven = Heaven::new(adb, lib, config);
    for &oid in &oids {
        heaven.export_object(oid, ExportMode::Tct).unwrap();
    }
    (heaven, oids)
}

#[test]
fn eight_session_chaos_trace_attributes_every_query() {
    let (mut heaven, oids) = build();
    heaven.set_batch_window(Duration::from_millis(50));
    // Drive-failure chaos: failed batched fetches requeue through the
    // retry/failover ladder, surviving extra drain passes — exactly what
    // the stall watchdog (armed at 1 window) must flag.
    let mut fc = FaultConfig::quiet(17);
    fc.drive_failure_per_read = 0.3;
    heaven.set_fault_plan(Some(fc));
    let heaven = heaven;
    let barrier = Barrier::new(WORKERS);
    std::thread::scope(|s| {
        for w in 0..WORKERS {
            let heaven = &heaven;
            let oids = &oids;
            let barrier = &barrier;
            s.spawn(move || {
                let session = heaven.session();
                barrier.wait();
                // Round 1: every session wants the same super-tile — the
                // first registers the fetch, the rest coalesce onto it.
                session.fetch_region(oids[0], &tile_region(0)).unwrap();
                // Round 2: disjoint chaos-stressed regions, 4 per session.
                for t in 0..((GRID * GRID) / 4) {
                    let tile = (w as i64 / 2) * 4 + t;
                    session
                        .fetch_region(oids[w % 2], &tile_region(tile))
                        .unwrap();
                }
            });
        }
    });

    // ---- scheduler decomposition and watchdog, straight off metrics
    let m = heaven.metrics();
    assert!(
        m.histogram("sched.queue_wait_s").snapshot().count > 0,
        "drainer must observe queue time per physical fetch"
    );
    assert!(
        m.histogram("sched.service_s").snapshot().count > 0,
        "drainer must observe service time per physical fetch"
    );
    assert!(
        m.counter("sched.requeued_fetches").get() > 0,
        "30% drive failures must force requeues"
    );
    assert!(
        m.counter("sched.stalls").get() > 0,
        "a requeued fetch survives >1 drain pass and must be flagged"
    );

    // ---- exemplars in the Prometheus exposition
    let prom = m.render_prometheus();
    let exemplar_line = prom
        .lines()
        .find(|l| l.starts_with("heaven_query_latency_s_bucket") && l.contains(" # {trace_id="))
        .unwrap_or_else(|| panic!("query latency must carry exemplars:\n{prom}"));
    assert!(exemplar_line.contains("span_id=\""), "{exemplar_line}");

    // ---- the trace itself: parse, link, attribute
    let text: String = heaven
        .trace()
        .records()
        .iter()
        .map(|r| r.to_json() + "\n")
        .collect();
    let records = load_trace(&text).expect("concurrent chaos trace parses");
    let stall = records
        .iter()
        .find(|r| r.kind == ProfKind::Event && r.name == "sched.stall")
        .expect("watchdog must name the stall in the trace");
    assert!(
        stall.field_u64("medium").is_some() && stall.field_u64("drains").is_some(),
        "stall event names the blocking medium: {stall:?}"
    );

    let report = critical_path(&records);
    assert_eq!(
        report.len(),
        WORKERS * 5,
        "every query span becomes one report row"
    );
    let sessions: BTreeSet<u64> = report.iter().map(|q| q.session).collect();
    assert_eq!(
        sessions.len(),
        WORKERS,
        "one lane per session: {sessions:?}"
    );
    assert!(!sessions.contains(&0), "every query is session-stamped");

    for q in &report {
        // Acceptance: local + fetch attribution covers the query span
        // total within ±1%.
        let err = (q.local_s + q.fetch_s - q.total_s).abs();
        assert!(
            err <= 0.01 * q.total_s.max(1e-9),
            "attribution drifted {err}s on a {}s query (span {})",
            q.total_s,
            q.span
        );
        // Every tertiary fetch links to the shared batch that served it,
        // and the link resolves to the drainer's session.
        assert_eq!(
            q.links.len() as u64,
            q.fetches,
            "span {}: {} fetches but {} links",
            q.span,
            q.fetches,
            q.links.len()
        );
        for l in &q.links {
            assert_ne!(l.to, 0, "link target must be a real batch span");
            assert_ne!(l.served_by, 0, "batch span must be session-stamped");
        }
    }
    let coalesced: u64 = report.iter().map(|q| q.coalesced).sum();
    assert!(
        coalesced > 0,
        "8 sessions racing for one super-tile must coalesce"
    );
    // Some query's bytes were staged by a different session's drain pass.
    assert!(
        report
            .iter()
            .any(|q| q.links.iter().any(|l| l.served_by != q.session)),
        "cross-session causality must appear in the links"
    );

    // ---- artifacts render and re-parse
    let js = to_json(&report);
    heaven_prof::json::parse(&js).expect("critical_path.json is valid");
    assert!(render(&report).contains("dominant"));
    let tl = utilization_timeline(&records, 60.0);
    assert_eq!(tl.lanes.len(), WORKERS, "one timeline lane per session");
    assert!(
        !tl.edges.is_empty(),
        "coalescing edges must reach the timeline"
    );
}
