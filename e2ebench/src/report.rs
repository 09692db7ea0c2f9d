//! Metric names, units and the result line.

use crate::stats::{fmt_opt, percentile, ratio, samples_beyond};
use crate::world::SetupSummary;
use std::collections::BTreeMap;

/// End-to-end metrics, reported by every untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ingest_mb_s", "MB/s"),
    ("export_mb_s", "MB/s"),
    ("export_sim_s", "s"),
    ("tape_bytes_per_user_byte", "ratio"),
    ("queries_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("query_sim_p50_s", "s"),
    ("query_sim_p99_s", "s"),
    ("sim_queries_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every traced run (`--trace 1`). A
/// metric whose base is zero on a workload is n/a there: the table
/// prints `n/a` and the result line carries 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("array.index.us_per_req", "us"),
    ("array.tile_decode.ms_per_req", "ms"),
    ("array.patch.ms_per_req", "ms"),
    ("array.patch.gb_s", "GB/s"),
    ("array.condense.gb_s", "GB/s"),
    ("array.codec.decode_gb_s", "GB/s"),
    ("array.codec.encode_gb_s", "GB/s"),
    ("arraydb.ql.parse_us", "us"),
    ("arraydb.ql.exec_self_ms", "ms"),
    ("arraydb.insert.ms_per_mb", "ms/MB"),
    ("rdbms.page_hit_ratio", "ratio"),
    ("rdbms.page_flushes_per_mb", "1/MB"),
    ("rdbms.page_evictions", "count"),
    ("rdbms.io_sim_s", "s"),
    ("core.export.ms_per_mb", "ms/MB"),
    ("core.fetch.self_ms", "ms"),
    ("core.session_fetch.ms_per_req", "ms"),
    ("cache.mem.hit_ratio", "ratio"),
    ("cache.mem.evictions", "count"),
    ("cache.st.hit_ratio", "ratio"),
    ("cache.st.evictions", "count"),
    ("cache.st.io_sim_s_per_req", "s"),
    ("cache.shard_lock_wait_ms", "ms"),
    ("heaven.bytes_copied_per_result_byte", "ratio"),
    ("heaven.st_tape_fetches_per_req", "count"),
    ("heaven.read_amplification", "ratio"),
    ("heaven.st_fetch_sim_p99_s", "s"),
    ("heaven.codec_saved_frac", "ratio"),
    ("sched.coalesced_frac", "ratio"),
    ("sched.batches_per_req", "count"),
    ("sched.queue_wait_p99_s", "s"),
    ("sched.service_p50_s", "s"),
    ("tape.mounts_per_req", "count"),
    ("tape.exchange_sim_s_per_req", "s"),
    ("tape.locate_sim_s_per_req", "s"),
    ("tape.transfer_sim_s_per_req", "s"),
    ("tape.write_sim_s", "s"),
    ("breakdown.mem_hits_per_req", "count"),
    ("breakdown.disk_cache_sim_s", "s"),
    ("breakdown.dbms_io_sim_s", "s"),
    ("breakdown.tape_exchange_sim_s", "s"),
    ("breakdown.tape_locate_sim_s", "s"),
    ("breakdown.tape_transfer_sim_s", "s"),
    ("breakdown.tape_other_sim_s", "s"),
    ("breakdown.other_sim_s", "s"),
    ("breakdown.total_sim_s", "s"),
    ("breakdown.other_sim_frac", "ratio"),
    ("obs.trace_overhead", "ratio"),
    ("obs.trace_residual_frac", "ratio"),
    ("obs.requests_traced", "count"),
];

/// Metric values by name; `None` is n/a.
pub type Values = BTreeMap<&'static str, Option<f64>>;

/// The request-level end-to-end metrics of one run.
pub struct ReqSummary<'a> {
    /// Host latency of every timed request, per client.
    pub host_by_client: &'a [Vec<f64>],
    /// Simulated latency of the deterministic prefix of requests.
    pub sim: &'a [f64],
    /// Simulated makespan of that prefix.
    pub sim_makespan_s: f64,
}

/// The end-to-end metrics, with a stderr note on the tail samples.
pub fn end_to_end(setup: &SetupSummary, reqs: &ReqSummary<'_>, peak_rss_mb: Option<f64>) -> Values {
    let host: Vec<f64> = reqs.host_by_client.iter().flatten().copied().collect();
    // Requests per host second each client spends waiting on the system,
    // summed over clients (the oracle's checks are not counted).
    let qps = reqs
        .host_by_client
        .iter()
        .filter_map(|c| ratio(c.len() as f64, c.iter().sum()))
        .sum::<f64>();
    eprintln!(
        "timed requests: {} host samples ({} beyond p99), {} simulated samples ({} beyond p99)",
        host.len(),
        samples_beyond(host.len(), 0.99),
        reqs.sim.len(),
        samples_beyond(reqs.sim.len(), 0.99),
    );
    let mut v = Values::new();
    v.insert("setup_s", Some(setup.setup_s));
    v.insert("ingest_mb_s", setup.ingest_mb_s);
    v.insert("export_mb_s", setup.export_mb_s);
    v.insert("export_sim_s", Some(setup.export_sim_s));
    v.insert("tape_bytes_per_user_byte", setup.tape_bytes_per_user_byte);
    v.insert("queries_per_s", (qps > 0.0).then_some(qps));
    v.insert("query_p50_ms", percentile(&host, 0.5).map(|s| s * 1e3));
    v.insert("query_p99_ms", percentile(&host, 0.99).map(|s| s * 1e3));
    v.insert("query_sim_p50_s", percentile(reqs.sim, 0.5));
    v.insert("query_sim_p99_s", percentile(reqs.sim, 0.99));
    v.insert(
        "sim_queries_per_s",
        ratio(reqs.sim.len() as f64, reqs.sim_makespan_s),
    );
    v.insert("peak_rss_mb", peak_rss_mb);
    v
}

/// Print the human-readable table of `names` to stderr.
pub fn print_table(title: &str, names: &[(&str, &str)], values: &Values) {
    eprintln!("-- {title}");
    for (name, unit) in names {
        let v = values.get(name).copied().flatten();
        eprintln!("{name:<38} {:>18} {unit}", fmt_opt(v));
    }
}

/// The result line: every metric of `names`, n/a written as 0.
pub fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    names: &[(&str, &str)],
    values: &Values,
) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().flatten().unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// A finite JSON number with all its digits.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_every_metric_and_no_nan() {
        let mut v = Values::new();
        v.insert("setup_s", Some(0.8127));
        v.insert("queries_per_s", None);
        let line = json_line(true, 3, 0, END_TO_END, &v);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        for (name, unit) in END_TO_END {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name}"
            );
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
        }
        assert!(line.contains("\"setup_s\": {\"value\": 0.8127,"));
        assert!(line.contains("\"queries_per_s\": {\"value\": 0.0,"));
        assert!(!line.contains("NaN") && !line.contains("inf"));
        assert_eq!(json_num(f64::NAN), "0.0");
    }

    #[test]
    fn names_are_unique_and_match_benchmark_json() {
        let manifest = include_str!("../../BENCHMARK.json");
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "{name} listed twice");
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            manifest.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists a metric the benchmark does not report"
        );
    }

    #[test]
    fn queries_per_s_sums_clients() {
        let host = vec![vec![0.01; 10], vec![0.02; 5]];
        let s = ReqSummary {
            host_by_client: &host,
            sim: &[1.0, 3.0],
            sim_makespan_s: 4.0,
        };
        let setup = SetupSummary {
            setup_s: 1.0,
            ingest_mb_s: None,
            export_mb_s: None,
            export_sim_s: 0.0,
            tape_bytes_per_user_byte: None,
        };
        let v = end_to_end(&setup, &s, None);
        assert!((v["queries_per_s"].unwrap() - 150.0).abs() < 1e-9);
        assert_eq!(v["sim_queries_per_s"], Some(0.5));
        assert_eq!(v["query_sim_p50_s"], Some(2.0));
    }
}
