//! In-memory host-time spans, recorded from the benchmark's own code
//! around each call into a layer's public functions, and written out as
//! JSON lines when the run ends.
//!
//! Two kinds of span exist. A *measured* span wraps a real call made by
//! the request (each request has one or more `request` roots). A
//! *replay* span wraps a kernel the benchmark re-ran on the request's
//! inputs after the request finished, because the kernel is reachable
//! only inside an entry point; it names the measured span whose time it
//! was part of (`replay_of`). Attribution moves a replay's duration out
//! of that span's self time into the kernel's own layer, so per request
//! the layer self times plus the unattributed residual (the roots' own
//! self time) add up to the request's host time.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Name of the root span(s) of one request.
pub const ROOT: &str = "request";

/// One recorded span (host nanoseconds since the tracer's epoch).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Request the span belongs to.
    pub req: u64,
    /// Layer boundary name, e.g. `core.fetch`.
    pub name: &'static str,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// For a replayed kernel: the measured span that contained it.
    pub replay_of: Option<&'static str>,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch` (share one epoch
    /// between threads so their spans can be merged).
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a measured span nested in the innermost open one.
    pub fn enter(&mut self, req: u64, name: &'static str) {
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            req,
            name,
            parent,
            start_ns,
            end_ns: start_ns,
            replay_of: None,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let end = self.now_ns();
        let i = self.open.pop().expect("exit matches an enter");
        self.spans[i].end_ns = end;
    }

    /// Run `f` inside a measured span.
    pub fn span<T>(&mut self, req: u64, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(req, name);
        let out = f();
        self.exit();
        out
    }

    /// Run a replayed kernel `f` whose real run happened inside the
    /// measured span named `replay_of`.
    pub fn replay<T>(
        &mut self,
        req: u64,
        name: &'static str,
        replay_of: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            req,
            name,
            parent: None,
            start_ns,
            end_ns,
            replay_of: Some(replay_of),
        });
        out
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Append another tracer's spans (same epoch), re-basing parents.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"req\":{},\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"replay_of\":{}}}",
                s.req,
                s.name,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start_ns,
                s.end_ns,
                s.replay_of
                    .map_or("null".to_string(), |r| format!("\"{r}\"")),
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once).
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, iv)| s.dur_ns() - covered_ns(iv))
        .collect()
}

/// Length of the union of intervals (sorted in place).
fn covered_ns(iv: &mut [(u64, u64)]) -> u64 {
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(lo, hi) in iv.iter() {
        match cur {
            Some((clo, chi)) if lo <= chi => cur = Some((clo, chi.max(hi))),
            Some((clo, chi)) => {
                total += chi - clo;
                cur = Some((lo, hi));
            }
            None => cur = Some((lo, hi)),
        }
    }
    total + cur.map_or(0, |(lo, hi)| hi - lo)
}

/// Where one request's host time went.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Attribution {
    /// Host time of the request: the summed duration of its roots.
    pub host_ns: i64,
    /// Self time per layer after moving replayed kernels into their own
    /// layers. A replay slower than the part of the span it came from
    /// leaves that span negative; it is reported, not clamped.
    pub layers: BTreeMap<&'static str, i64>,
    /// Time inside the roots that no layer span covers.
    pub residual_ns: i64,
}

impl Attribution {
    /// Layer self times plus the residual (equals `host_ns`).
    pub fn total_ns(&self) -> i64 {
        self.layers.values().sum::<i64>() + self.residual_ns
    }
}

/// Per-request attribution of every request in `spans`.
pub fn attribute(spans: &[Span]) -> BTreeMap<u64, Attribution> {
    let selfs = self_ns(spans);
    let mut out: BTreeMap<u64, Attribution> = BTreeMap::new();
    for (s, &own) in spans.iter().zip(&selfs) {
        let a = out.entry(s.req).or_default();
        match s.replay_of {
            Some(from) => {
                *a.layers.entry(s.name).or_default() += s.dur_ns() as i64;
                *a.layers.entry(from).or_default() -= s.dur_ns() as i64;
            }
            None if s.parent.is_none() => {
                a.host_ns += s.dur_ns() as i64;
                a.residual_ns += own as i64;
            }
            None => *a.layers.entry(s.name).or_default() += own as i64,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(req: u64, name: &'static str, parent: Option<usize>, s: u64, e: u64) -> Span {
        Span {
            req,
            name,
            parent,
            start_ns: s,
            end_ns: e,
            replay_of: None,
        }
    }

    #[test]
    fn self_time_subtracts_union_of_children() {
        let spans = vec![
            span(1, ROOT, None, 0, 100),
            span(1, "a", Some(0), 10, 40),
            span(1, "b", Some(0), 30, 60), // overlaps a: union 10..60
            span(1, "c", Some(1), 15, 20),
        ];
        assert_eq!(self_ns(&spans), vec![50, 25, 30, 5]);
    }

    #[test]
    fn layers_plus_residual_sum_to_host_time() {
        let mut spans = vec![
            span(7, ROOT, None, 0, 100),
            span(7, "core.fetch", Some(0), 10, 90),
            span(7, ROOT, None, 200, 230), // second root of the same request
            span(8, ROOT, None, 300, 310),
        ];
        spans.push(Span {
            replay_of: Some("core.fetch"),
            ..span(7, "array.patch", None, 400, 430)
        });
        let a = attribute(&spans);
        let r7 = &a[&7];
        assert_eq!(r7.host_ns, 130);
        assert_eq!(r7.layers["core.fetch"], 50);
        assert_eq!(r7.layers["array.patch"], 30);
        assert_eq!(r7.residual_ns, 50);
        assert_eq!(r7.total_ns(), r7.host_ns);
        assert_eq!(a[&8].total_ns(), 10);
    }

    #[test]
    fn tracer_nests_and_merges() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch);
        t.enter(1, ROOT);
        t.span(1, "inner", || std::hint::black_box(3));
        t.exit();
        t.replay(1, "kernel", "inner", || ());
        let mut u = Tracer::new(epoch);
        u.enter(2, ROOT);
        u.span(2, "inner", || ());
        u.exit();
        t.merge(u);
        let s = t.spans();
        assert_eq!(s.len(), 5);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[4].parent, Some(3), "merged parent re-based");
        assert!(s.iter().all(|x| x.end_ns >= x.start_ns));
        for a in attribute(s).values() {
            assert_eq!(a.total_ns(), a.host_ns);
        }
    }
}
