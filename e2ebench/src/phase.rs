//! The closed request loop shared by the single-owner read
//! workloads.

use crate::counters::{Delta, Snapshot};
use crate::layers::Levels;
use heaven::core::Heaven;
use std::time::{Duration, Instant};

/// What one request reported to the loop.
pub struct ReqOut {
    /// Host time of the entry-point call(s) only; the oracle's checks
    /// run outside it.
    pub host_s: f64,
    /// The result matched the oracle.
    pub ok: bool,
    /// Bytes of input data the request asked for.
    pub result_bytes: f64,
}

/// Everything measured over the deterministic prefix of a phase.
#[derive(Default)]
pub struct Prefix {
    /// Simulated latency per request (`QueryBreakdown::total_s`).
    pub sim: Vec<f64>,
    pub levels: Levels,
    pub delta: Delta,
    pub result_bytes: f64,
    /// Host time of the prefix requests.
    pub host_s: f64,
    /// Simulated clock advance over the prefix.
    pub makespan_s: f64,
}

/// One closed-loop phase of a single client.
#[derive(Default)]
pub struct Phase {
    /// Host latency of every request of the phase.
    pub host: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub prefix: Prefix,
}

/// Run requests `0, 1, ...` through `req`: at least `min` of them (the
/// deterministic prefix every simulated metric and counter is taken
/// over), then more until `seconds` of wall time have passed or `n`
/// requests are done.
pub fn run(
    h: &mut Heaven,
    n: usize,
    min: usize,
    seconds: f64,
    mut req: impl FnMut(&mut Heaven, usize) -> ReqOut,
) -> Phase {
    let mut p = Phase::default();
    let snap = Snapshot::take(h.metrics());
    let clock0 = h.clock().now_s();
    let start = Instant::now();
    let until = Duration::from_secs_f64(seconds);
    for i in 0..n {
        if i >= min && start.elapsed() >= until {
            break;
        }
        let out = req(h, i);
        p.attempted += 1;
        p.failed += u64::from(!out.ok);
        p.host.push(out.host_s);
        if i < min {
            let pre = &mut p.prefix;
            let b = h.last_query_breakdown().cloned().unwrap_or_default();
            pre.sim.push(crate::world::sim_s(b.total_s));
            pre.levels.add(&b);
            pre.result_bytes += out.result_bytes;
            pre.host_s += out.host_s;
            if i + 1 == min {
                pre.delta = snap.delta(&Snapshot::take(h.metrics()));
                pre.makespan_s = h.clock().now_s() - clock0;
            }
        }
    }
    p
}
