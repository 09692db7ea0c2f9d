//! Trace-layer integration tests: the span trees emitted while real
//! queries run must be well-nested, and simulated time must be conserved
//! down the tree (children never account for more time than their
//! parent). Also checks the JSONL sink end-to-end: a cold query's trace
//! file must cover the tape events (mount, locate, transfer) inside the
//! query's span.

use std::collections::HashMap;

use heaven::array::{CellType, Minterval, Tiling};
use heaven::core::{ExportMode, Heaven, HeavenConfig};
use heaven::obs::{check_well_nested, Field, RecordKind, SpanId, TraceConfig, TraceRecord};
use heaven::tape::DeviceProfile;
use heaven::workload::climate_field;
use proptest::prelude::*;

fn mi(b: &[(i64, i64)]) -> Minterval {
    Minterval::new(b).unwrap()
}

/// A 64x64 climate field archived as TCT super-tiles, caches cleared, so
/// the first fetch is cold (tape traffic under the query span).
fn archived_heaven(trace: TraceConfig) -> (Heaven, u64) {
    let mut heaven = heaven::open(
        DeviceProfile::ibm3590(),
        1,
        HeavenConfig {
            supertile_bytes: Some(8 << 10),
            trace,
            ..HeavenConfig::default()
        },
    );
    heaven
        .arraydb_mut()
        .create_collection("c", CellType::F32, 2)
        .unwrap();
    let field = climate_field(mi(&[(0, 63), (0, 63)]), 17);
    let oid = heaven
        .arraydb_mut()
        .insert_object(
            "c",
            &field,
            Tiling::Regular {
                tile_shape: vec![16, 16],
            },
        )
        .unwrap();
    heaven.export_object(oid, ExportMode::Tct).unwrap();
    heaven.clear_caches();
    (heaven, oid)
}

/// One reconstructed span: name, closing duration, parent.
struct Span {
    name: &'static str,
    dur_s: f64,
    parent: Option<SpanId>,
}

/// Rebuild the span forest from a record stream (requires that the ring
/// did not overflow, i.e. every `SpanEnd` has its `SpanStart`).
fn collect_spans(recs: &[TraceRecord]) -> HashMap<SpanId, Span> {
    let mut spans = HashMap::new();
    for rec in recs {
        match rec.kind {
            RecordKind::SpanStart => {
                spans.insert(
                    rec.span,
                    Span {
                        name: rec.name,
                        dur_s: f64::NAN,
                        parent: rec.parent,
                    },
                );
            }
            RecordKind::SpanEnd => {
                let dur = rec
                    .fields
                    .iter()
                    .find_map(|(k, v)| match (k, v) {
                        (&"dur_s", Field::F64(d)) => Some(*d),
                        _ => None,
                    })
                    .expect("span_end carries dur_s");
                spans.get_mut(&rec.span).expect("end after start").dur_s = dur;
            }
            // Links are edges between spans, not time containers.
            RecordKind::Event | RecordKind::Link => {}
        }
    }
    spans
}

/// For every closed span, the direct children's durations must sum to at
/// most the parent's duration: simulated time is conserved down the tree.
fn assert_children_fit(spans: &HashMap<SpanId, Span>) {
    let mut child_sum: HashMap<SpanId, f64> = HashMap::new();
    for span in spans.values() {
        if let Some(p) = span.parent {
            assert!(
                !span.dur_s.is_nan(),
                "span {} left open at end of trace",
                span.name
            );
            *child_sum.entry(p).or_default() += span.dur_s;
        }
    }
    for (id, sum) in child_sum {
        let parent = &spans[&id];
        assert!(
            sum <= parent.dur_s + 1e-9,
            "children of span {} ({}) sum to {sum} s > parent's {} s",
            id,
            parent.name,
            parent.dur_s
        );
    }
}

/// Walk `span`'s ancestor chain looking for a span named `name`.
fn has_ancestor(spans: &HashMap<SpanId, Span>, mut span: SpanId, name: &str) -> bool {
    loop {
        let Some(s) = spans.get(&span) else {
            return false;
        };
        if s.name == name {
            return true;
        }
        match s.parent {
            Some(p) => span = p,
            None => return false,
        }
    }
}

#[test]
fn cold_query_trace_is_well_nested_with_tape_events_under_the_query() {
    let (mut heaven, oid) = archived_heaven(TraceConfig::ring(1 << 16));
    heaven.occupy_drives().unwrap(); // force a media exchange

    // A region past the start of the tape, so the drive must locate
    // (zero-cost locates emit no event).
    heaven
        .fetch_region_hierarchical(oid, &mi(&[(32, 63), (32, 63)]))
        .unwrap();

    let recs = heaven.trace().records();
    let depth = check_well_nested(&recs).expect("trace must be well-nested");
    assert!(
        depth >= 3,
        "expected query > fetch_region > st_fetch, got depth {depth}"
    );
    assert_eq!(
        heaven.trace().open_spans(),
        0,
        "all spans closed after the query"
    );

    let spans = collect_spans(&recs);
    assert_children_fit(&spans);

    // The tape events of the cold fetch must hang inside the query span.
    for name in ["tape.mount", "tape.locate", "tape.transfer"] {
        let covered = recs.iter().any(|r| {
            r.kind == RecordKind::Event
                && r.name == name
                && r.parent.is_some_and(|p| has_ancestor(&spans, p, "query"))
        });
        assert!(covered, "no {name} event under a query span");
    }
    // And the root of that subtree is the auto-bracketed query span.
    let root = spans
        .values()
        .find(|s| s.name == "query" && s.parent.is_none())
        .expect("root query span");
    assert!(root.dur_s > 0.0, "cold query advanced simulated time");
}

#[test]
fn jsonl_sink_captures_the_full_cold_query_trace() {
    let path = std::env::temp_dir().join(format!("heaven_trace_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let (mut heaven, oid) = archived_heaven(TraceConfig::jsonl(path.clone()));
    heaven.occupy_drives().unwrap();
    heaven
        .fetch_region_hierarchical(oid, &mi(&[(32, 63), (32, 63)]))
        .unwrap();
    // The JSONL sink drains in batches: flush the tail before reading.
    heaven.trace().flush();
    let recs = heaven.trace().records();
    check_well_nested(&recs).expect("mirrored trace well-nested");

    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), recs.len(), "one JSONL line per record");
    for line in &lines {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "bad line: {line}"
        );
    }
    for name in [
        "\"name\":\"query\"",
        "\"name\":\"heaven.fetch_region\"",
        "\"name\":\"heaven.st_fetch\"",
        "\"name\":\"tape.mount\"",
        "\"name\":\"tape.locate\"",
        "\"name\":\"tape.transfer\"",
    ] {
        assert!(
            lines.iter().any(|l| l.contains(name)),
            "JSONL trace missing {name}"
        );
    }
    let _ = std::fs::remove_file(&path);
}

/// A run killed mid-query (panic with the query bracket still open) must
/// leave a parseable JSONL prefix behind: the bus drains and flushes its
/// pending records when it is dropped during unwinding.
#[test]
fn aborted_run_leaves_a_parseable_jsonl_prefix() {
    let path =
        std::env::temp_dir().join(format!("heaven_trace_abort_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    // Silence the expected panic's backtrace in test output.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let (mut heaven, oid) = archived_heaven(TraceConfig::jsonl(path.clone()));
        heaven
            .fetch_region_hierarchical(oid, &mi(&[(0, 31), (0, 31)]))
            .unwrap();
        // Die inside an open query bracket, with no flush anywhere.
        heaven.begin_query("doomed");
        heaven
            .fetch_region_hierarchical(oid, &mi(&[(32, 63), (32, 63)]))
            .unwrap();
        panic!("simulated crash mid-query");
    }));
    std::panic::set_hook(prev_hook);
    assert!(result.is_err(), "the workload must have panicked");

    let text = std::fs::read_to_string(&path).expect("trace file exists after the crash");
    let lines: Vec<&str> = text.lines().collect();
    assert!(
        lines.len() > 10,
        "the drop-flush preserved the trace prefix ({} lines)",
        lines.len()
    );
    for line in &lines {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "bad line: {line}"
        );
    }
    // The completed first query made it to the file...
    assert!(lines.iter().any(|l| l.contains("\"name\":\"query\"")));
    // ...and so did records from the in-flight doomed query.
    assert!(text.contains("doomed"), "records up to the crash are kept");
    let _ = std::fs::remove_file(&path);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any sequence of region queries (mixed cold and warm, interleaved
    /// with cache flushes) yields a well-nested trace whose child spans
    /// never account for more simulated time than their parents, and
    /// every query's breakdown levels sum to its observed SimClock delta.
    fn query_span_trees_stay_well_nested(
        queries in prop::collection::vec(
            (0i64..48, 1i64..16, 0i64..48, 1i64..16, any::<bool>()),
            1..5,
        ),
    ) {
        let (mut heaven, oid) = archived_heaven(TraceConfig::ring(1 << 16));
        for (x0, dx, y0, dy, flush) in queries {
            if flush {
                heaven.clear_caches();
            }
            let region = mi(&[
                (x0, (x0 + dx).min(63)),
                (y0, (y0 + dy).min(63)),
            ]);
            let t0 = heaven.clock().now_s();
            heaven.fetch_region_hierarchical(oid, &region).unwrap();
            let dt = heaven.clock().now_s() - t0;
            let b = heaven.last_query_breakdown().expect("auto-bracketed query");
            prop_assert!(
                (b.total_s - dt).abs() < 1e-9,
                "breakdown total {} != clock delta {dt}", b.total_s
            );
            prop_assert!(
                (b.levels_sum_s() - b.total_s).abs() < 1e-6,
                "levels sum {} != total {}", b.levels_sum_s(), b.total_s
            );
        }
        let recs = heaven.trace().records();
        let depth = check_well_nested(&recs)
            .map_err(TestCaseError::fail)?;
        prop_assert!(depth >= 2);
        prop_assert_eq!(heaven.trace().open_spans(), 0);
        assert_children_fit(&collect_spans(&recs));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Head/tail sampling never breaks well-nestedness: a sampled-out
    /// query disappears as a whole subtree (or is promoted as a whole
    /// when slow), so whatever remains is still a well-nested forest
    /// with exactly the expected number of query spans.
    fn sampled_query_traces_stay_well_nested(
        n in 1u64..6,
        keep_all_slow in any::<bool>(),
        queries in prop::collection::vec(
            (0i64..48, 1i64..16, 0i64..48, 1i64..16, any::<bool>()),
            1..6,
        ),
    ) {
        let mut trace = TraceConfig::ring(1 << 16).with_sample(n);
        if keep_all_slow {
            // Every sampled-out query qualifies as "slow": the tail
            // capture path must promote whole subtrees in order.
            trace = trace.with_keep_slow(0.0);
        }
        let (mut heaven, oid) = archived_heaven(trace);
        for &(x0, dx, y0, dy, flush) in &queries {
            if flush {
                heaven.clear_caches();
            }
            let region = mi(&[
                (x0, (x0 + dx).min(63)),
                (y0, (y0 + dy).min(63)),
            ]);
            heaven.fetch_region_hierarchical(oid, &region).unwrap();
        }
        let recs = heaven.trace().records();
        check_well_nested(&recs).map_err(TestCaseError::fail)?;
        prop_assert_eq!(heaven.trace().open_spans(), 0);
        assert_children_fit(&collect_spans(&recs));
        let kept = recs
            .iter()
            .filter(|r| r.kind == RecordKind::SpanStart && r.name == "query")
            .count();
        let expected = if keep_all_slow {
            queries.len() // head-kept + promoted slow = everything
        } else {
            queries.len().div_ceil(n as usize) // every n-th query
        };
        prop_assert_eq!(kept, expected, "n={} queries={}", n, queries.len());
    }
}

/// Concurrent sessions are head-sampled exactly like the facade: every
/// session's root `query` span draws the next ticket from the bus's one
/// counter, so exactly every n-th query's subtree is kept, however the
/// sessions interleave. With `keep_slow_s = 0` every sampled-out query is
/// promoted, and each subtree arrives whole, well-nested and stamped with
/// its one session.
#[test]
fn concurrent_sessions_are_head_sampled_like_the_facade() {
    const SESSIONS: usize = 4;
    const PER_SESSION: usize = 6;
    let queries = SESSIONS * PER_SESSION;
    for (n, keep_all_slow) in [(3u64, false), (4, true)] {
        let mut trace = TraceConfig::ring(1 << 16).with_sample(n);
        if keep_all_slow {
            trace = trace.with_keep_slow(0.0);
        }
        let (heaven, oid) = archived_heaven(trace);
        let start = std::sync::Barrier::new(SESSIONS);
        std::thread::scope(|s| {
            for i in 0..SESSIONS {
                let (heaven, start) = (&heaven, &start);
                s.spawn(move || {
                    let session = heaven.session();
                    start.wait();
                    for q in 0..PER_SESSION {
                        let x0 = ((i * 7 + q * 13) % 48) as i64;
                        let region = mi(&[(x0, x0 + 15), (0, 31)]);
                        session.fetch_region(oid, &region).unwrap();
                    }
                });
            }
        });
        let recs = heaven.trace().records();
        let roots = recs
            .iter()
            .filter(|r| r.kind == RecordKind::SpanStart && r.name == "query")
            .inspect(|r| assert_eq!(r.parent, None, "session queries are roots"))
            .count();
        let expected = if keep_all_slow {
            queries
        } else {
            queries.div_ceil(n as usize)
        };
        assert_eq!(roots, expected, "n={n} keep_all_slow={keep_all_slow}");

        // Per session, the kept records form whole, well-nested subtrees,
        // and a span's records carry its parent's session.
        let span_session: HashMap<SpanId, Option<u64>> = recs
            .iter()
            .filter(|r| r.kind == RecordKind::SpanStart)
            .map(|r| (r.span, r.session))
            .collect();
        let mut by_session: HashMap<Option<u64>, Vec<TraceRecord>> = HashMap::new();
        for r in &recs {
            if r.kind != RecordKind::Link {
                if let Some(p) = r.parent {
                    assert_eq!(span_session[&p], r.session, "{r:?}");
                }
            }
            by_session.entry(r.session).or_default().push(r.clone());
        }
        for (session, rs) in &by_session {
            check_well_nested(rs).unwrap_or_else(|e| panic!("session {session:?}: {e}"));
            let count = |k: RecordKind| rs.iter().filter(|r| r.kind == k).count();
            assert_eq!(
                count(RecordKind::SpanStart),
                count(RecordKind::SpanEnd),
                "session {session:?} left a subtree open"
            );
        }
    }
}
