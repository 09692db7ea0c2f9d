//! Counter deltas over a measured phase, read from the program's own
//! `MetricsRegistry::snapshot()`.

use heaven::obs::{HistSnapshot, MetricValue, MetricsRegistry};
use std::collections::BTreeMap;

/// One registry snapshot, keyed by metric name.
#[derive(Debug, Clone, Default)]
pub struct Snapshot(BTreeMap<&'static str, MetricValue>);

impl Snapshot {
    /// Read every metric of `registry`.
    pub fn take(registry: &MetricsRegistry) -> Snapshot {
        Snapshot(registry.snapshot().into_iter().collect())
    }

    /// What happened between `self` and the later snapshot `later`.
    pub fn delta(&self, later: &Snapshot) -> Delta {
        let mut d = Delta::default();
        for (&name, now) in &later.0 {
            let before = self.0.get(name);
            match now {
                MetricValue::Counter(v) => {
                    let b = match before {
                        Some(MetricValue::Counter(b)) => *b,
                        _ => 0,
                    };
                    d.values.insert(name, v.saturating_sub(b) as f64);
                }
                MetricValue::FloatCounter(v) => {
                    let b = match before {
                        Some(MetricValue::FloatCounter(b)) => *b,
                        _ => 0.0,
                    };
                    d.values.insert(name, (v - b).max(0.0));
                }
                MetricValue::Gauge(v) => {
                    d.values.insert(name, *v);
                }
                MetricValue::Histogram(h) => {
                    let b = match before {
                        Some(MetricValue::Histogram(b)) => Some(b),
                        _ => None,
                    };
                    d.hists.insert(name, hist_delta(b, h));
                }
            }
        }
        d
    }
}

/// Observations added to a histogram between two snapshots. Bucket
/// counts, count and sum are exact; min and max are the later
/// snapshot's (a delta cannot recover them), which only widens the
/// clamp range of `HistSnapshot::quantile`.
fn hist_delta(before: Option<&HistSnapshot>, after: &HistSnapshot) -> HistSnapshot {
    let Some(b) = before else {
        return after.clone();
    };
    HistSnapshot {
        count: after.count.saturating_sub(b.count),
        sum: after.sum - b.sum,
        min: after.min,
        max: after.max,
        counts: after
            .counts
            .iter()
            .zip(b.counts.iter().chain(std::iter::repeat(&0)))
            .map(|(a, b)| a.saturating_sub(*b))
            .collect(),
        exemplars: Vec::new(),
    }
}

/// Counter and histogram changes over a phase.
#[derive(Debug, Clone, Default)]
pub struct Delta {
    values: BTreeMap<&'static str, f64>,
    hists: BTreeMap<&'static str, HistSnapshot>,
}

impl Delta {
    /// A counter's (or float counter's) increase; 0 for an unknown name.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// The `q`-quantile of a histogram's new observations; `None` when
    /// none were added.
    pub fn quantile(&self, name: &str, q: f64) -> Option<f64> {
        self.hists
            .get(name)
            .filter(|h| h.count > 0)
            .map(|h| h.quantile(q))
    }

    /// Sum of a histogram's new observations.
    pub fn hist_sum(&self, name: &str) -> f64 {
        self.hists.get(name).map_or(0.0, |h| h.sum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_cover_counters_floats_and_histograms() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("t.count");
        let f = reg.fcounter("t.secs");
        let h = reg.histogram("t.hist_s");
        c.add(5);
        f.add(1.5);
        h.observe(100.0);
        let before = Snapshot::take(&reg);
        c.add(3);
        f.add(0.25);
        for _ in 0..9 {
            h.observe(0.001);
        }
        let late = reg.counter("t.late"); // registered mid-phase
        late.add(2);
        let d = before.delta(&Snapshot::take(&reg));
        assert_eq!(d.get("t.count"), 3.0);
        assert_eq!(d.get("t.secs"), 0.25);
        assert_eq!(d.get("t.late"), 2.0);
        assert_eq!(d.get("t.absent"), 0.0);
        // The pre-phase 100 s outlier is not part of the delta.
        let p99 = d.quantile("t.hist_s", 0.99).expect("observations");
        assert!(p99 < 0.01, "p99 {p99}");
        assert!((d.hist_sum("t.hist_s") - 0.009).abs() < 1e-12);
        assert_eq!(d.quantile("t.absent", 0.5), None);
    }

    #[test]
    fn empty_phase_has_no_quantile() {
        let reg = MetricsRegistry::new();
        reg.histogram("t.hist_s").observe(1.0);
        let s = Snapshot::take(&reg);
        let d = s.delta(&Snapshot::take(&reg));
        assert_eq!(d.quantile("t.hist_s", 0.5), None);
    }
}
