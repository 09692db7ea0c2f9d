//! `archive_write`: the write path. Each pass builds a fresh system,
//! inserts every object with `ArrayDb::insert_object`, then exports each
//! with `Heaven::export_object(ExportMode::Tct)` (adaptive compression,
//! dual copy). The ~100 MB of user data exceed the 64 MiB rdbms buffer
//! pool of `heaven::open`, so pages are evicted and flushed.
//!
//! A request is one object: its insert plus its export. Passes repeat
//! until the time is up; the first pass is the deterministic prefix.
//! After the timed phase every object of the last pass is fetched back
//! in full and compared byte-exact with the input.

use crate::counters::{Delta, Snapshot};
use crate::layers::{from_counters, ms_per_mb};
use crate::report::{end_to_end, ReqSummary, Values};
use crate::stats::{median, percentile, ratio};
use crate::trace::{self, Tracer};
use crate::world::{self, Payloads, SetupSummary, SysSpec, MB};
use crate::{Args, RunOut};
use heaven::array::{encode_wire, MDArray, ObjectId};
use heaven::core::{ExportReport, Heaven};
use std::time::{Duration, Instant};

const OBJECTS: usize = 192;
/// 32×64×64 F32 = 512 KiB (4 tiles) per object, 96 MiB per pass.
const SHAPE: [i64; 3] = [32, 64, 64];
/// Fresh systems built for the `setup_s` median (a build is cheap), before
/// and after the timed phase.
const SETUPS: (usize, usize) = (50, 51);
/// Bytes per F32 cell.
const CELL_BYTES: usize = 4;

/// Dual copy on; the caches play no part in writing.
pub const SPEC: SysSpec = SysSpec {
    mem_cache: 8 << 20,
    disk_cache: 64 << 20,
    dual_copy: true,
    medium_per_object: false,
    cache_shards: 1,
};

/// One pass: every object inserted, then every object exported.
struct Pass {
    heaven: Heaven,
    oids: Vec<ObjectId>,
    reports: Vec<ExportReport>,
    /// Counter deltas over the pass.
    delta: Delta,
    /// Per object: host seconds of its insert plus its export.
    host: Vec<f64>,
    /// Per object: simulated seconds of its insert plus its export's
    /// pipelined makespan.
    sim: Vec<f64>,
    ingest_s: f64,
    export_s: f64,
}

/// Run `f` inside a `request` root and a `layer` span when tracing.
fn call<T>(
    tr: &mut Option<&mut Tracer>,
    req: usize,
    layer: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    match tr {
        Some(tr) => {
            tr.enter(req as u64, trace::ROOT);
            let out = tr.span(req as u64, layer, f);
            tr.exit();
            out
        }
        None => f(),
    }
}

fn pass(inputs: &[MDArray], mut tr: Option<&mut Tracer>) -> Pass {
    let mut heaven = world::build(&SPEC);
    let snap = Snapshot::take(heaven.metrics());
    let clock = heaven.clock();
    let (mut host, mut sim, mut oids) = (Vec::new(), Vec::new(), Vec::new());
    let t0 = Instant::now();
    for (i, input) in inputs.iter().enumerate() {
        let s0 = clock.now_s();
        let t = Instant::now();
        let oid = call(&mut tr, i, "arraydb.insert", || {
            world::insert(&mut heaven, input)
        });
        host.push(t.elapsed().as_secs_f64());
        sim.push(world::sim_s(clock.now_s() - s0));
        oids.push(oid);
    }
    let t1 = Instant::now();
    let mut reports = Vec::new();
    for (i, &oid) in oids.iter().enumerate() {
        let t = Instant::now();
        let report = call(&mut tr, i, "core.export", || {
            world::export(&mut heaven, oid)
        });
        host[i] += t.elapsed().as_secs_f64();
        sim[i] = world::sim_s(sim[i] + report.pipelined_s);
        reports.push(report);
    }
    let t2 = Instant::now();
    Pass {
        delta: snap.delta(&Snapshot::take(heaven.metrics())),
        heaven,
        oids,
        reports,
        host,
        sim,
        ingest_s: (t1 - t0).as_secs_f64(),
        export_s: (t2 - t1).as_secs_f64(),
    }
}

/// Fetch every object back in full; count the ones that differ.
fn read_back(p: &mut Pass, inputs: &[MDArray]) -> u64 {
    let mut bad = 0;
    for (&oid, input) in p.oids.iter().zip(inputs) {
        let ok = p
            .heaven
            .fetch_region_hierarchical(oid, input.domain())
            .is_ok_and(|a| world::region_ok(&a, input, input.domain()));
        bad += u64::from(!ok);
    }
    bad
}

pub fn run(args: &Args) -> RunOut {
    let inputs = world::climate_inputs(OBJECTS, SHAPE, args.seed);
    let user = world::user_bytes(&inputs) as f64;
    let mut builds = Vec::new();
    let mut time_builds = |n: usize| {
        for _ in 0..n {
            let t = Instant::now();
            drop(std::hint::black_box(world::build(&SPEC)));
            builds.push(t.elapsed().as_secs_f64());
        }
    };
    time_builds(SETUPS.0);

    let start = Instant::now();
    let first = pass(&inputs, None);
    let (mut host, mut ingest, mut export) = (Vec::new(), Vec::new(), Vec::new());
    let mut note = |p: &Pass| {
        host.push(p.host.clone());
        ingest.push(user / MB / p.ingest_s);
        export.push(user / MB / p.export_s);
    };
    note(&first);
    let prefix_sim = first.sim.clone();
    let prefix_host: f64 = first.host.iter().sum();
    let export_sim_s: f64 = first.reports.iter().map(|r| r.pipelined_s).sum();
    let written = first.heaven.tape_stats().bytes_written as f64;
    let mut last = Some(first);
    let mut passes_repeat = true;
    while !args.trace && start.elapsed() < Duration::from_secs_f64(args.seconds) {
        // Free the previous pass's system before building the next.
        drop(last.take());
        let p = pass(&inputs, None);
        note(&p);
        passes_repeat &= p.sim == prefix_sim;
        last = Some(p);
    }
    let mut last = last.expect("a pass ran");
    let attempted = host.iter().map(Vec::len).sum::<usize>() as u64;
    let mut out = RunOut::new(attempted, read_back(&mut last, &inputs));
    out.check(
        "every pass repeats the first pass's simulated times",
        passes_repeat,
    );
    if !args.trace {
        drop(last);
        time_builds(SETUPS.1);
        let setup = SetupSummary {
            setup_s: median(&builds).expect("set-ups ran"),
            ingest_mb_s: median(&ingest),
            export_mb_s: median(&export),
            export_sim_s,
            tape_bytes_per_user_byte: ratio(written, user),
        };
        let pooled = [host.concat()];
        out.values = end_to_end(
            &setup,
            &ReqSummary {
                host_by_client: &pooled,
                sim: &prefix_sim,
                sim_makespan_s: prefix_sim.iter().sum(),
            },
            crate::sys::peak_rss_mb(),
        );
        // Every pass repeats the same objects, so each object's host time
        // is its median over the passes, and the request metrics are taken
        // over those medians. A pooled or per-pass tail would move with the
        // few moments the shared host slows down (measured: up to 34% on
        // p99); a moment that slows one pass moves no object's median.
        let per_object: Vec<f64> = (0..OBJECTS)
            .filter_map(|i| median(&host.iter().map(|h| h[i]).collect::<Vec<_>>()))
            .collect();
        eprintln!(
            "request metrics over {} per-object medians of {} passes",
            per_object.len(),
            host.len()
        );
        out.values.insert(
            "queries_per_s",
            ratio(per_object.len() as f64, per_object.iter().sum()),
        );
        out.values.insert(
            "query_p50_ms",
            percentile(&per_object, 0.5).map(|s| s * 1e3),
        );
        out.values.insert(
            "query_p99_ms",
            percentile(&per_object, 0.99).map(|s| s * 1e3),
        );
        return out;
    }
    let mut v = from_counters(&last.delta, OBJECTS as f64, 0.0, Some(user / MB));
    let raw: u64 = last.reports.iter().map(|r| r.raw_bytes).sum();
    v.insert(
        "heaven.codec_saved_frac",
        ratio(last.delta.get("heaven.codec_bytes_saved"), raw as f64),
    );
    v.insert(
        "tape.write_sim_s",
        Some(last.reports.iter().map(|r| r.tape_write_s).sum()),
    );
    drop(last);
    v.extend(traced_pass(
        args,
        &inputs,
        &prefix_sim,
        prefix_host,
        user,
        &mut out,
    ));
    out.values = v;
    out
}

/// Run one more pass with spans, then replay the codec encode of every
/// exported super-tile on payloads the benchmark rebuilt from its input.
fn traced_pass(
    args: &Args,
    inputs: &[MDArray],
    untraced_sim: &[f64],
    untraced_host_s: f64,
    user: f64,
    out: &mut RunOut,
) -> Values {
    let mut tr = Tracer::new(Instant::now());
    let p = pass(inputs, Some(&mut tr));
    out.attempted += p.oids.len() as u64;
    out.check(
        "traced pass repeats the untraced simulated times",
        p.sim == untraced_sim,
    );
    let policy = p.heaven.config().codec;
    let mut payloads = Payloads::default();
    let (mut encoded, mut replays_ok) = (0u64, true);
    for (i, (&oid, input)) in p.oids.iter().zip(inputs).enumerate() {
        if let Err(e) = payloads.add_object(&p.heaven, oid, input, &policy) {
            eprintln!("archive differs from the benchmark's input: {e}");
            out.failed += 1;
            continue;
        }
        for st in p.heaven.catalog().object_supertiles(oid) {
            let sp = &payloads.sts[&st];
            let (wire, _) = tr.replay(i as u64, "array.codec.encode", "core.export", || {
                encode_wire(&sp.payload, CELL_BYTES, &policy)
            });
            encoded += sp.payload.len() as u64;
            replays_ok &= wire[..] == sp.wire[..];
        }
    }
    out.check(
        "replayed kernels reproduce the entry point's bytes",
        replays_ok,
    );
    let layers = crate::finish_trace(args, &tr, out);
    let mut v = layers.obs_values(untraced_host_s);
    v.insert(
        "arraydb.insert.ms_per_mb",
        ms_per_mb(layers.sum_ns("arraydb.insert"), user),
    );
    v.insert(
        "core.export.ms_per_mb",
        ms_per_mb(layers.sum_ns("core.export"), user),
    );
    v.insert(
        "array.codec.encode_gb_s",
        layers.gb_s("array.codec.encode", encoded as f64),
    );
    v
}
