//! `cold_archive`: uniform 1% boxes over 8 objects, each exported to its
//! own medium, with both drives holding scratch media at the start, a
//! disk cache of a quarter of the archive and a small memory cache.
//!
//! Every request is one `fetch_region_hierarchical`. `fetch_batch` is not
//! issued: with compression on it stages compressed wire bytes into the
//! disk cache, and later hits on them fail (see WORKLOADS.md). Simulated
//! time is mounts, locates and transfers in scheduler order; host time
//! adds codec decode, checksums and tape-model bookkeeping.

use crate::layers::{from_counters, HostLayers};
use crate::phase::{self, ReqOut};
use crate::report::{end_to_end, ReqSummary};
use crate::trace::{self, Tracer};
use crate::world::{self, Payloads, ReplayBytes, Setups, SysSpec};
use crate::{Args, RunOut};
use heaven::array::{MDArray, Minterval, ObjectId};
use heaven::core::Heaven;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const OBJECTS: usize = 8;
/// 120³ F32 = 6.9 MB per object: not a multiple of the 32³ tile, so
/// border tiles, and the super-tiles holding them, vary in size.
const SHAPE: [i64; 3] = [120, 120, 120];
const SELECTIVITY: f64 = 0.01;
/// Requests every simulated metric and counter is taken over.
pub const PREFIX: usize = 1500;
/// Requests generated; the timed phase stops earlier when its time is up.
const STREAM: usize = 20_000;
/// Set-ups before the timed phase (the last is measured) and after it.
const SETUPS: (usize, usize) = (6, 6);

/// Memory cache 2 MiB, disk cache 14 MiB (a quarter of the 55 MB archive),
/// one medium per object.
pub const SPEC: SysSpec = SysSpec {
    mem_cache: 2 << 20,
    disk_cache: 14 << 20,
    dual_copy: false,
    medium_per_object: true,
    cache_shards: 1,
};

/// One request: one region of one object. `usize` indexes objects.
type Request = (usize, Minterval);

fn stream(seed: u64) -> Vec<Request> {
    let domain = Minterval::new(&[(0, SHAPE[0] - 1), (0, SHAPE[1] - 1), (0, SHAPE[2] - 1)])
        .expect("positive shape");
    let mut rng = StdRng::seed_from_u64(world::mix(seed, 2));
    (0..STREAM)
        .map(|_| {
            let obj = rng.gen_range(0..OBJECTS);
            (
                obj,
                heaven::workload::random_box(&domain, SELECTIVITY, &mut rng),
            )
        })
        .collect()
}

/// Leave both drives holding scratch media.
fn occupy(a: &mut world::Archive) {
    a.heaven.occupy_drives().expect("scratch media mount");
}

fn issue(
    h: &mut Heaven,
    oids: &[ObjectId],
    (obj, region): &Request,
) -> heaven::core::Result<MDArray> {
    h.fetch_region_hierarchical(oids[*obj], region)
}

fn check(res: &MDArray, (obj, region): &Request, inputs: &[MDArray]) -> bool {
    world::region_ok(res, &inputs[*obj], region)
}

fn request_bytes((_, region): &Request) -> f64 {
    (region.cell_count() * 4) as f64
}

pub fn run(args: &Args) -> RunOut {
    let inputs = world::climate_inputs(OBJECTS, SHAPE, args.seed);
    let requests = stream(args.seed);
    let mut setups = Setups::new(&inputs);
    // A traced run reports no set-up metric: one set-up is enough.
    let before = if args.trace { 0 } else { SETUPS.0 - 1 };
    setups.run_discarded(before, &SPEC, &inputs, occupy);
    let mut arc = setups.run(&SPEC, &inputs, occupy);
    let oids = arc.oids.clone();
    let untimed = if args.trace { 0.0 } else { args.seconds };
    let p = phase::run(&mut arc.heaven, requests.len(), PREFIX, untimed, |h, i| {
        let r = &requests[i];
        let t0 = Instant::now();
        let res = issue(h, &oids, r);
        let host_s = t0.elapsed().as_secs_f64();
        ReqOut {
            host_s,
            ok: res.is_ok_and(|a| check(&a, r, &inputs)),
            result_bytes: request_bytes(r),
        }
    });
    let mut out = RunOut::new(p.attempted, p.failed);
    out.check(
        "levels sum to total_s within 1%",
        p.prefix.levels.sums_to_total(),
    );
    if !args.trace {
        drop(arc);
        setups.run_discarded(SETUPS.1, &SPEC, &inputs, occupy);
        let host = [p.host];
        out.values = end_to_end(
            &setups.summary(),
            &ReqSummary {
                host_by_client: &host,
                sim: &p.prefix.sim,
                sim_makespan_s: p.prefix.makespan_s,
            },
            crate::sys::peak_rss_mb(),
        );
        return out;
    }
    let mut v = from_counters(&p.prefix.delta, PREFIX as f64, p.prefix.result_bytes, None);
    v.extend(p.prefix.levels.values());
    drop(arc);
    let (layers, moved) = traced_phase(args, &inputs, &requests, &p.prefix.sim, &mut out);
    v.extend(layers.obs_values(p.prefix.host_s));
    v.extend(layers.fetch_values(&moved));
    v.insert("core.fetch.self_ms", layers.per_req("core.fetch", 1e6));
    out.values = v;
    out
}

/// Rebuild the system and run the deterministic prefix again with spans
/// and kernel replays.
fn traced_phase(
    args: &Args,
    inputs: &[MDArray],
    requests: &[Request],
    untraced_sim: &[f64],
    out: &mut RunOut,
) -> (HostLayers, ReplayBytes) {
    let mut arc = world::archive(&SPEC, inputs, occupy);
    let payloads = Payloads::rebuild(&arc.heaven, &arc.oids, inputs, out);
    let h = &mut arc.heaven;
    let mut tr = Tracer::new(Instant::now());
    let mut moved = ReplayBytes::default();
    let (mut replays_ok, mut sim_same) = (true, true);
    for (i, r) in requests.iter().take(PREFIX).enumerate() {
        let req = i as u64;
        tr.enter(req, trace::ROOT);
        let res = tr.span(req, "core.fetch", || issue(h, &arc.oids, r));
        tr.exit();
        let b = h.last_query_breakdown().cloned().unwrap_or_default();
        sim_same &= untraced_sim.get(i) == Some(&world::sim_s(b.total_s));
        out.attempted += 1;
        let Some(res) = res.ok().filter(|a| check(a, r, inputs)) else {
            out.failed += 1;
            continue;
        };
        // The breakdown counts this request's tape fetches, not which
        // super-tiles they were: replay decode on that many of them.
        let (o, reg) = r;
        let mut sts = payloads.supertiles_of(&payloads.metas[*o], reg);
        sts.truncate(b.tape_fetches as usize);
        replays_ok &=
            world::replay_decode_wire(&mut tr, req, "core.fetch", &payloads, &sts, &mut moved);
        let arr = world::replay_region(
            &mut tr,
            req,
            "core.fetch",
            &payloads.metas[*o],
            &payloads,
            reg,
            &mut moved,
        );
        replays_ok &= arr.is_some_and(|a| a.bytes() == res.bytes());
    }
    out.check(
        "replayed kernels reproduce the entry point's bytes",
        replays_ok,
    );
    out.check("traced run repeats the untraced simulated times", sim_same);
    (crate::finish_trace(args, &tr, out), moved)
}
