//! `sessions_mix`: `Heaven::into_concurrent()` serving two `Session`s
//! (one client thread each, closed loop) over a hot/cold region stream on
//! 4 objects, dealt out by `session_streams`. The disk cache is smaller
//! than the archive and both caches are striped. The only workload that
//! runs `core::concurrent`: the `FetchBatcher` (coalescing, host batching
//! window) and the striped caches.
//!
//! The sessions run in lock-step rounds: a barrier starts every session's
//! i-th request together. Which fetches share a batch then depends on the
//! request streams rather than on thread scheduling, so the simulated
//! metrics repeat from run to run to within a fraction of a percent.

use crate::counters::{Delta, Snapshot};
use crate::layers::{from_counters, Levels};
use crate::report::{end_to_end, ReqSummary};
use crate::trace::{self, Tracer};
use crate::world::{self, Payloads, ReplayBytes, Setups, SysSpec};
use crate::{Args, RunOut};
use heaven::array::{MDArray, Minterval, ObjectId};
use heaven::core::ConcurrentHeaven;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

const OBJECTS: usize = 4;
/// 120³ F32 = 6.9 MB per object: not a multiple of the 32³ tile, so
/// border tiles, and the super-tiles holding them, vary in size.
const SHAPE: [i64; 3] = [120, 120, 120];
const SELECTIVITY: f64 = 0.02;
/// Half the requests fall in one hot box per object: the cache and the
/// batcher see both reuse and misses, and no single seed's hot box
/// decides the outcome.
const HOT_FRACTION: f64 = 0.5;
/// Concurrent sessions, one client thread each.
const SESSIONS: usize = 2;
/// Requests per session every simulated metric and counter is taken over.
pub const PREFIX_PER_SESSION: usize = 600;
/// Requests generated; the timed phase stops earlier when its time is up.
const STREAM: usize = 60_000;
/// Set-ups before the timed phase (the last is measured) and after it.
const SETUPS: (usize, usize) = (6, 6);

/// Memory cache 2 MiB, disk cache 4 MiB (0.15 of the 27.6 MB archive),
/// 4 stripes per cache level: most requests wait on a tape fetch.
pub const SPEC: SysSpec = SysSpec {
    mem_cache: 2 << 20,
    disk_cache: 4 << 20,
    dual_copy: false,
    medium_per_object: false,
    cache_shards: 4,
};

type Request = (usize, Minterval);

fn streams(seed: u64) -> Vec<Vec<Request>> {
    let domain = Minterval::new(&[(0, SHAPE[0] - 1), (0, SHAPE[1] - 1), (0, SHAPE[2] - 1)])
        .expect("positive shape");
    let mut per_obj: Vec<std::vec::IntoIter<Minterval>> = (0..OBJECTS as u64)
        .map(|o| {
            heaven::workload::hot_region_queries(
                &domain,
                SELECTIVITY,
                STREAM,
                HOT_FRACTION,
                world::mix(seed, 300 + o),
            )
            .into_iter()
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(world::mix(seed, 3));
    let all: Vec<Request> = (0..STREAM)
        .map(|_| {
            let obj = rng.gen_range(0..OBJECTS);
            (obj, per_obj[obj].next().expect("one region per request"))
        })
        .collect();
    heaven::workload::session_streams(&all, SESSIONS)
}

/// Tracing state of one session thread.
struct Traced<'a> {
    tr: Tracer,
    payloads: &'a Payloads,
    moved: ReplayBytes,
    replays_ok: bool,
}

/// Lock-step rounds: every session issues its i-th request together.
struct Round {
    barrier: Barrier,
    /// First round no session runs.
    stop_at: AtomicUsize,
}

/// What one session measured.
#[derive(Default)]
struct SessionOut {
    host: Vec<f64>,
    /// Lane time per prefix request.
    sim: Vec<f64>,
    /// Lane time from session start to the end of its prefix.
    prefix_lane_s: f64,
    prefix_host_s: f64,
    prefix_bytes: f64,
    attempted: u64,
    failed: u64,
}

#[allow(clippy::too_many_arguments)]
fn session_loop(
    con: &ConcurrentHeaven,
    stream: &[Request],
    oids: &[ObjectId],
    inputs: &[MDArray],
    seconds: f64,
    start: Instant,
    mut traced: Option<&mut Traced<'_>>,
    sid: usize,
    round: &Round,
) -> SessionOut {
    let s = con.session();
    let lane0 = s.now_s();
    let mut o = SessionOut::default();
    let until = Duration::from_secs_f64(seconds);
    for (i, (obj, region)) in stream.iter().enumerate() {
        // Session 0 decides when the phase ends; the barrier publishes it
        // and starts every session's i-th request together.
        if sid == 0 && i >= PREFIX_PER_SESSION && start.elapsed() >= until {
            round.stop_at.fetch_min(i, Ordering::SeqCst);
        }
        round.barrier.wait();
        if round.stop_at.load(Ordering::SeqCst) <= i {
            break;
        }
        let req = (i * SESSIONS + sid) as u64;
        let oid = oids[*obj];
        let l0 = s.now_s();
        let t0 = Instant::now();
        let res = match traced.as_deref_mut() {
            Some(t) => {
                t.tr.enter(req, trace::ROOT);
                let r =
                    t.tr.span(req, "core.session_fetch", || s.fetch_region(oid, region));
                t.tr.exit();
                r
            }
            None => s.fetch_region(oid, region),
        };
        let host_s = t0.elapsed().as_secs_f64();
        let ok = res
            .as_ref()
            .is_ok_and(|a| world::region_ok(a, &inputs[*obj], region));
        o.attempted += 1;
        o.failed += u64::from(!ok);
        o.host.push(host_s);
        if i < PREFIX_PER_SESSION {
            o.sim.push(world::sim_s(s.now_s() - l0));
            o.prefix_host_s += host_s;
            o.prefix_bytes += (region.cell_count() * 4) as f64;
            o.prefix_lane_s = s.now_s() - lane0;
        }
        if let (Some(t), Ok(got)) = (traced.as_deref_mut(), &res) {
            let arr = world::replay_region(
                &mut t.tr,
                req,
                "core.session_fetch",
                &t.payloads.metas[*obj],
                t.payloads,
                region,
                &mut t.moved,
            );
            t.replays_ok &= arr.is_some_and(|a| a.bytes() == got.bytes());
        }
    }
    o
}

/// Run every session on its own thread; returns per-session results and
/// the counter deltas over the phase.
fn run_phase(
    con: &ConcurrentHeaven,
    streams: &[Vec<Request>],
    oids: &[ObjectId],
    inputs: &[MDArray],
    seconds: f64,
    traced: Option<&mut [Traced<'_>]>,
) -> (Vec<SessionOut>, Delta) {
    let snap = Snapshot::take(con.metrics());
    let round = &Round {
        barrier: Barrier::new(streams.len()),
        stop_at: AtomicUsize::new(usize::MAX),
    };
    let start = Instant::now();
    let outs = std::thread::scope(|sc| {
        let handles: Vec<_> = match traced {
            Some(ts) => streams
                .iter()
                .zip(ts.iter_mut())
                .enumerate()
                .map(|(sid, (st, t))| {
                    sc.spawn(move || {
                        session_loop(con, st, oids, inputs, seconds, start, Some(t), sid, round)
                    })
                })
                .collect(),
            None => streams
                .iter()
                .enumerate()
                .map(|(sid, st)| {
                    sc.spawn(move || {
                        session_loop(con, st, oids, inputs, seconds, start, None, sid, round)
                    })
                })
                .collect(),
        };
        handles
            .into_iter()
            .map(|h| h.join().expect("session thread panicked"))
            .collect::<Vec<_>>()
    });
    (outs, snap.delta(&Snapshot::take(con.metrics())))
}

pub fn run(args: &Args) -> RunOut {
    let inputs = world::climate_inputs(OBJECTS, SHAPE, args.seed);
    let streams = streams(args.seed);
    let mut setups = Setups::new(&inputs);
    // A traced run reports no set-up metric: one set-up is enough.
    let before = if args.trace { 0 } else { SETUPS.0 - 1 };
    setups.run_discarded(before, &SPEC, &inputs, |_| {});
    let arc = setups.run(&SPEC, &inputs, |_| {});
    let oids = arc.oids.clone();
    let con = arc.heaven.into_concurrent();
    let untimed = if args.trace { 0.0 } else { args.seconds };
    let (outs, delta) = run_phase(&con, &streams, &oids, &inputs, untimed, None);
    drop(con);
    let sum = |f: fn(&SessionOut) -> f64| outs.iter().map(f).sum::<f64>();
    let mut out = RunOut::new(
        outs.iter().map(|o| o.attempted).sum(),
        outs.iter().map(|o| o.failed).sum(),
    );
    let sim: Vec<f64> = outs.iter().flat_map(|o| o.sim.iter().copied()).collect();
    // Lanes fork at one instant; the prefix ends with the slowest lane.
    let makespan = outs.iter().map(|o| o.prefix_lane_s).fold(0.0, f64::max);
    if !args.trace {
        setups.run_discarded(SETUPS.1, &SPEC, &inputs, |_| {});
        let host: Vec<Vec<f64>> = outs.into_iter().map(|o| o.host).collect();
        out.values = end_to_end(
            &setups.summary(),
            &ReqSummary {
                host_by_client: &host,
                sim: &sim,
                sim_makespan_s: makespan,
            },
            crate::sys::peak_rss_mb(),
        );
        return out;
    }
    let reqs = (SESSIONS * PREFIX_PER_SESSION) as f64;
    let mut v = from_counters(&delta, reqs, sum(|o| o.prefix_bytes), None);
    v.extend(Levels::from_delta(&delta, reqs, sim.iter().sum()).values());
    let untraced_host = sum(|o| o.prefix_host_s);

    // Traced phase on a rebuilt system.
    let arc = world::archive(&SPEC, &inputs, |_| {});
    let payloads = Payloads::rebuild(&arc.heaven, &arc.oids, &inputs, &mut out);
    let con = arc.heaven.into_concurrent();
    let epoch = Instant::now();
    let mut ts: Vec<Traced<'_>> = (0..SESSIONS)
        .map(|_| Traced {
            tr: Tracer::new(epoch),
            payloads: &payloads,
            moved: ReplayBytes::default(),
            replays_ok: true,
        })
        .collect();
    let (touts, _) = run_phase(&con, &streams, &oids, &inputs, 0.0, Some(&mut ts));
    out.attempted += touts.iter().map(|o| o.attempted).sum::<u64>();
    out.failed += touts.iter().map(|o| o.failed).sum::<u64>();
    let mut tr = Tracer::new(epoch);
    let mut moved = ReplayBytes::default();
    let mut replays_ok = true;
    for t in ts {
        moved.patched += t.moved.patched;
        replays_ok &= t.replays_ok;
        tr.merge(t.tr);
    }
    out.check(
        "replayed kernels reproduce the entry point's bytes",
        replays_ok,
    );
    let layers = crate::finish_trace(args, &tr, &mut out);
    v.extend(layers.obs_values(untraced_host));
    v.extend(layers.fetch_values(&moved));
    v.insert(
        "core.session_fetch.ms_per_req",
        layers.per_req("core.session_fetch", 1e6),
    );
    out.values = v;
    out
}
