//! Per-layer metrics: counter deltas (counts and simulated time) and the
//! traced run's host-time attribution.

use crate::counters::Delta;
use crate::report::Values;
use crate::stats::ratio;
use crate::trace::Attribution;
use crate::world::{ReplayBytes, MB};
use heaven::obs::QueryBreakdown;
use std::collections::BTreeMap;

/// Counter-based per-layer metrics over a phase of `reqs` requests that
/// returned `result_bytes`; `write_mb` is the user data written in the
/// phase (write workloads only).
pub fn from_counters(d: &Delta, reqs: f64, result_bytes: f64, write_mb: Option<f64>) -> Values {
    let per_req = |name: &str| ratio(d.get(name), reqs);
    let hit_ratio = |hits: &str, misses: &str| ratio(d.get(hits), d.get(hits) + d.get(misses));
    let mut v = Values::new();
    v.insert(
        "rdbms.page_hit_ratio",
        hit_ratio("rdbms.page_hits", "rdbms.page_misses"),
    );
    v.insert(
        "rdbms.page_flushes_per_mb",
        write_mb.and_then(|mb| ratio(d.get("rdbms.page_flushes"), mb)),
    );
    v.insert("rdbms.page_evictions", Some(d.get("rdbms.page_evictions")));
    v.insert("rdbms.io_sim_s", Some(d.hist_sum("rdbms.page_io_hist_s")));
    v.insert(
        "cache.mem.hit_ratio",
        hit_ratio("cache.mem.hits", "cache.mem.misses"),
    );
    v.insert("cache.mem.evictions", Some(d.get("cache.mem.evictions")));
    v.insert(
        "cache.st.hit_ratio",
        hit_ratio("cache.st.hits", "cache.st.misses"),
    );
    v.insert("cache.st.evictions", Some(d.get("cache.st.evictions")));
    v.insert("cache.st.io_sim_s_per_req", per_req("cache.st.io_s"));
    v.insert(
        "cache.shard_lock_wait_ms",
        ratio(d.get("cache.shard_lock_wait_s") * 1e3, reqs),
    );
    v.insert(
        "heaven.bytes_copied_per_result_byte",
        ratio(d.get("heaven.bytes_copied"), result_bytes),
    );
    v.insert(
        "heaven.st_tape_fetches_per_req",
        per_req("heaven.st_tape_fetches"),
    );
    v.insert(
        "heaven.read_amplification",
        ratio(d.get("heaven.st_tape_bytes"), result_bytes),
    );
    v.insert(
        "heaven.st_fetch_sim_p99_s",
        d.quantile("heaven.st_fetch_hist_s", 0.99),
    );
    let coalesced = d.get("sched.coalesced_fetches");
    v.insert(
        "sched.coalesced_frac",
        ratio(coalesced, coalesced + d.get("sched.batched_fetches")),
    );
    v.insert("sched.batches_per_req", per_req("sched.batches"));
    v.insert(
        "sched.queue_wait_p99_s",
        d.quantile("sched.queue_wait_s", 0.99),
    );
    v.insert("sched.service_p50_s", d.quantile("sched.service_s", 0.5));
    v.insert("tape.mounts_per_req", per_req("tape.mounts"));
    v.insert("tape.exchange_sim_s_per_req", per_req("tape.exchange_s"));
    v.insert("tape.locate_sim_s_per_req", per_req("tape.locate_s"));
    v.insert("tape.transfer_sim_s_per_req", per_req("tape.transfer_s"));
    v
}

/// Simulated per-level sums over a phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Levels {
    pub reqs: f64,
    pub mem_hits: f64,
    pub disk_cache_s: f64,
    pub dbms_io_s: f64,
    pub exchange_s: f64,
    pub locate_s: f64,
    pub transfer_s: f64,
    /// Rewind and shelf time.
    pub tape_other_s: f64,
    pub other_s: f64,
    pub total_s: f64,
}

impl Levels {
    /// Add one single-owner request's `QueryBreakdown`.
    pub fn add(&mut self, b: &QueryBreakdown) {
        self.reqs += 1.0;
        self.mem_hits += b.mem_hits as f64;
        self.disk_cache_s += b.disk_cache_s;
        self.dbms_io_s += b.dbms_io_s;
        self.exchange_s += b.tape_exchange_s;
        self.locate_s += b.tape_locate_s;
        self.transfer_s += b.tape_transfer_s;
        self.tape_other_s += b.tape_rewind_s + b.shelf_s;
        self.other_s += b.other_s;
        self.total_s += b.total_s;
    }

    /// The levels from registry deltas (concurrent sessions, which keep no
    /// `QueryBreakdown`). `total_s` is the summed per-request lane time;
    /// `other_s` is what the levels leave of it, which can be negative:
    /// a coalesced tape fetch is charged once to the registry but waited
    /// for on every waiting session's lane.
    pub fn from_delta(d: &Delta, reqs: f64, total_s: f64) -> Levels {
        let mut l = Levels {
            reqs,
            mem_hits: d.get("cache.mem.hits"),
            disk_cache_s: d.get("cache.st.io_s"),
            dbms_io_s: d.hist_sum("rdbms.page_io_hist_s"),
            exchange_s: d.get("tape.exchange_s"),
            locate_s: d.get("tape.locate_s"),
            transfer_s: d.get("tape.transfer_s"),
            tape_other_s: d.get("tape.rewind_s") + d.get("tape.shelf_s"),
            other_s: 0.0,
            total_s,
        };
        l.other_s = total_s - l.known_s();
        l
    }

    fn known_s(&self) -> f64 {
        self.disk_cache_s
            + self.dbms_io_s
            + self.exchange_s
            + self.locate_s
            + self.transfer_s
            + self.tape_other_s
    }

    /// Whether the levels sum to the total within 1%.
    pub fn sums_to_total(&self) -> bool {
        let sum = self.known_s() + self.other_s;
        (sum - self.total_s).abs() <= 0.01 * self.total_s.abs().max(1e-12)
    }

    /// The `breakdown.*` metrics.
    pub fn values(&self) -> Values {
        let mut v = Values::new();
        v.insert(
            "breakdown.mem_hits_per_req",
            ratio(self.mem_hits, self.reqs),
        );
        v.insert("breakdown.disk_cache_sim_s", Some(self.disk_cache_s));
        v.insert("breakdown.dbms_io_sim_s", Some(self.dbms_io_s));
        v.insert("breakdown.tape_exchange_sim_s", Some(self.exchange_s));
        v.insert("breakdown.tape_locate_sim_s", Some(self.locate_s));
        v.insert("breakdown.tape_transfer_sim_s", Some(self.transfer_s));
        v.insert("breakdown.tape_other_sim_s", Some(self.tape_other_s));
        v.insert("breakdown.other_sim_s", Some(self.other_s));
        v.insert("breakdown.total_sim_s", Some(self.total_s));
        v.insert(
            "breakdown.other_sim_frac",
            ratio(self.other_s, self.total_s),
        );
        v
    }
}

/// Host-time per-layer metrics from a traced phase.
pub struct HostLayers {
    attrs: BTreeMap<u64, Attribution>,
    /// Summed per-layer self time (ns) over all traced requests.
    sums: BTreeMap<&'static str, f64>,
    host_ns: f64,
    residual_ns: f64,
}

impl HostLayers {
    /// Summarise per-request attributions.
    pub fn new(attrs: BTreeMap<u64, Attribution>) -> HostLayers {
        let mut sums: BTreeMap<&'static str, f64> = BTreeMap::new();
        let (mut host_ns, mut residual_ns) = (0.0, 0.0);
        for a in attrs.values() {
            for (&k, &ns) in &a.layers {
                *sums.entry(k).or_default() += ns as f64;
            }
            host_ns += a.host_ns as f64;
            residual_ns += a.residual_ns as f64;
        }
        HostLayers {
            attrs,
            sums,
            host_ns,
            residual_ns,
        }
    }

    /// Requests traced.
    pub fn requests(&self) -> usize {
        self.attrs.len()
    }

    /// Requests whose layer self times plus residual miss their host time.
    pub fn unbalanced(&self) -> usize {
        self.attrs
            .values()
            .filter(|a| a.total_ns() != a.host_ns)
            .count()
    }

    /// Summed self time of `layer`, ns (`None` when never seen).
    pub fn sum_ns(&self, layer: &str) -> Option<f64> {
        self.sums.get(layer).copied()
    }

    /// Mean self time of `layer` per traced request, in `unit_ns` units.
    pub fn per_req(&self, layer: &str, unit_ns: f64) -> Option<f64> {
        self.sum_ns(layer)
            .and_then(|s| ratio(s / unit_ns, self.requests() as f64))
    }

    /// Bytes per ns (= GB/s) of `layer` over `bytes`.
    pub fn gb_s(&self, layer: &str, bytes: f64) -> Option<f64> {
        self.sum_ns(layer).and_then(|s| ratio(bytes, s))
    }

    /// The fetch-path kernel metrics of the replays that moved `bytes`.
    pub fn fetch_values(&self, bytes: &ReplayBytes) -> Values {
        let mut v = Values::new();
        v.insert("array.index.us_per_req", self.per_req("array.index", 1e3));
        v.insert(
            "array.tile_decode.ms_per_req",
            self.per_req("array.tile_decode", 1e6),
        );
        v.insert("array.patch.ms_per_req", self.per_req("array.patch", 1e6));
        v.insert(
            "array.patch.gb_s",
            self.gb_s("array.patch", bytes.patched as f64),
        );
        v.insert(
            "array.codec.decode_gb_s",
            self.gb_s("array.codec.decode", bytes.decoded_wire as f64),
        );
        v
    }

    /// The `obs.*` check metrics; `untraced_host_s` is the host time of the
    /// same requests run without tracing.
    pub fn obs_values(&self, untraced_host_s: f64) -> Values {
        let mut v = Values::new();
        v.insert(
            "obs.trace_overhead",
            ratio(self.host_ns / 1e9, untraced_host_s),
        );
        v.insert(
            "obs.trace_residual_frac",
            ratio(self.residual_ns, self.host_ns),
        );
        v.insert("obs.requests_traced", Some(self.requests() as f64));
        v
    }
}

/// Milliseconds per MB of `ns` over `bytes`.
pub fn ms_per_mb(ns: Option<f64>, bytes: f64) -> Option<f64> {
    ns.and_then(|ns| ratio(ns / 1e6, bytes / MB))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_sum_and_frac() {
        let mut l = Levels::default();
        l.add(&QueryBreakdown {
            total_s: 10.0,
            disk_cache_s: 1.0,
            tape_exchange_s: 6.0,
            tape_locate_s: 2.0,
            other_s: 1.0,
            mem_hits: 4,
            ..QueryBreakdown::default()
        });
        l.add(&QueryBreakdown {
            mem_hits: 2,
            ..QueryBreakdown::default()
        });
        assert!(l.sums_to_total());
        let v = l.values();
        assert_eq!(v["breakdown.mem_hits_per_req"], Some(3.0));
        assert_eq!(v["breakdown.other_sim_frac"], Some(0.1));
        // An over-attributed phase fails the 1% check.
        l.exchange_s += 0.5;
        assert!(!l.sums_to_total());
        // No simulated time at all: the fraction is n/a, the check holds.
        assert_eq!(Levels::default().values()["breakdown.other_sim_frac"], None);
        assert!(Levels::default().sums_to_total());
    }

    #[test]
    fn host_layers_means_and_rates() {
        let mut attrs = BTreeMap::new();
        for req in 0..4u64 {
            let mut a = Attribution {
                host_ns: 4_000_000,
                residual_ns: 1_000_000,
                ..Attribution::default()
            };
            a.layers.insert("array.patch", 3_000_000);
            attrs.insert(req, a);
        }
        let h = HostLayers::new(attrs);
        assert_eq!(h.requests(), 4);
        assert_eq!(h.unbalanced(), 0);
        assert_eq!(h.per_req("array.patch", 1e6), Some(3.0));
        assert_eq!(h.per_req("array.index", 1e3), None);
        assert_eq!(h.gb_s("array.patch", 24e6), Some(2.0));
        let v = h.obs_values(0.008);
        assert_eq!(v["obs.trace_overhead"], Some(2.0));
        assert_eq!(v["obs.trace_residual_frac"], Some(0.25));
        assert_eq!(ms_per_mb(Some(2e6), 4e6), Some(0.5));
        assert_eq!(ms_per_mb(None, 4e6), None);
    }
}
