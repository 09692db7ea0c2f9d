//! `warm_rasql`: rasql text through `heaven_arraydb::run` on a
//! single-owner `Heaven` whose disk cache holds the whole archive.
//!
//! Half the queries are trims, half `avg_cells`/`add_cells` condensers,
//! each on one object (`where oid(c) = N`), over hot-region boxes (2%
//! selectivity, 80% inside one hot box per object). The memory tile
//! cache is smaller than the archive, so both cache levels work; tape is
//! idle and the codec is bypassed (the disk cache holds decompressed
//! payloads).

use crate::layers::{from_counters, HostLayers};
use crate::phase::{self, ReqOut};
use crate::report::{end_to_end, ReqSummary, Values};
use crate::trace::{self, Tracer};
use crate::world::{self, Payloads, ReplayBytes, Setups, SysSpec};
use crate::{Args, RunOut};
use heaven::array::{Condenser, MDArray, Minterval, ObjectId};
use heaven::arraydb::ql::{execute, parse_query};
use heaven::arraydb::{ObjectMeta, QueryResult, TileProvider, Value};
use heaven::core::Heaven;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const OBJECTS: usize = 4;
/// 120³ F32 = 6.9 MB per object: not a multiple of the 32³ tile, so
/// border tiles, and the super-tiles holding them, vary in size.
const SHAPE: [i64; 3] = [120, 120, 120];
const SELECTIVITY: f64 = 0.02;
const HOT_FRACTION: f64 = 0.8;
/// Requests every simulated metric and counter is taken over.
pub const PREFIX: usize = 4000;
/// Requests generated; the timed phase stops earlier when its time is up.
const STREAM: usize = 60_000;
/// Set-ups before the timed phase (the last is measured) and after it.
const SETUPS: (usize, usize) = (6, 6);

/// Memory cache 6 MiB (0.23 of the 27.6 MB archive, so most queries read
/// the disk cache), disk cache 64 MiB (holds the whole archive).
pub const SPEC: SysSpec = SysSpec {
    mem_cache: 6 << 20,
    disk_cache: 64 << 20,
    dual_copy: false,
    medium_per_object: false,
    cache_shards: 1,
};

#[derive(Clone, Copy)]
enum Kind {
    Trim,
    Condense(Condenser),
}

struct Query {
    obj: usize,
    region: Minterval,
    kind: Kind,
}

impl Query {
    fn text(&self, oid: ObjectId) -> String {
        let b = &self.region;
        let sel = format!(
            "c[{}:{},{}:{},{}:{}]",
            b.axis(0).lo,
            b.axis(0).hi,
            b.axis(1).lo,
            b.axis(1).hi,
            b.axis(2).lo,
            b.axis(2).hi
        );
        let target = match self.kind {
            Kind::Trim => sel,
            Kind::Condense(Condenser::Avg) => format!("avg_cells({sel})"),
            Kind::Condense(_) => format!("add_cells({sel})"),
        };
        format!(
            "select {target} from {} as c where oid(c) = {oid}",
            world::COLL
        )
    }
}

fn stream(seed: u64) -> Vec<Query> {
    let domain = domain();
    let mut per_obj: Vec<std::vec::IntoIter<Minterval>> = (0..OBJECTS as u64)
        .map(|o| {
            heaven::workload::hot_region_queries(
                &domain,
                SELECTIVITY,
                STREAM,
                HOT_FRACTION,
                world::mix(seed, 100 + o),
            )
            .into_iter()
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(world::mix(seed, 1));
    (0..STREAM)
        .map(|i| {
            let obj = rng.gen_range(0..OBJECTS);
            let kind = match i % 4 {
                0 | 2 => Kind::Trim,
                1 => Kind::Condense(Condenser::Avg),
                _ => Kind::Condense(Condenser::Sum),
            };
            let region = per_obj[obj].next().expect("one region per request");
            Query { obj, region, kind }
        })
        .collect()
}

fn domain() -> Minterval {
    Minterval::new(&[(0, SHAPE[0] - 1), (0, SHAPE[1] - 1), (0, SHAPE[2] - 1)])
        .expect("positive shape")
}

/// Stage every super-tile into the disk cache (and fill the tile cache).
fn stage(a: &mut world::Archive) {
    for &oid in &a.oids {
        a.heaven
            .fetch_region_hierarchical(oid, &domain())
            .expect("staging fetch");
    }
}

/// The oracle for one query's results.
fn check(res: &[QueryResult], q: &Query, oid: ObjectId, input: &MDArray) -> bool {
    let [r] = res else {
        return false;
    };
    r.oid == oid
        && match (q.kind, &r.value) {
            (Kind::Trim, Value::Array(a)) => world::region_ok(a, input, &q.region),
            (Kind::Condense(op), Value::Scalar(s)) => world::condense_ok(*s, input, &q.region, op),
            _ => false,
        }
}

fn region_bytes(q: &Query) -> f64 {
    (q.region.cell_count() * 4) as f64
}

pub fn run(args: &Args) -> RunOut {
    let inputs = world::climate_inputs(OBJECTS, SHAPE, args.seed);
    let queries = stream(args.seed);
    let mut setups = Setups::new(&inputs);
    // A traced run reports no set-up metric: one set-up is enough.
    let before = if args.trace { 0 } else { SETUPS.0 - 1 };
    setups.run_discarded(before, &SPEC, &inputs, stage);
    let mut arc = setups.run(&SPEC, &inputs, stage);
    let oids = arc.oids.clone();
    let untimed = if args.trace { 0.0 } else { args.seconds };
    let p = phase::run(&mut arc.heaven, queries.len(), PREFIX, untimed, |h, i| {
        let q = &queries[i];
        let text = q.text(oids[q.obj]);
        let t0 = Instant::now();
        let res = heaven::arraydb::run(h, &text);
        let host_s = t0.elapsed().as_secs_f64();
        let ok = res.is_ok_and(|r| check(&r, q, oids[q.obj], &inputs[q.obj]));
        ReqOut {
            host_s,
            ok,
            result_bytes: region_bytes(q),
        }
    });
    let mut out = RunOut::new(p.attempted, p.failed);
    out.check(
        "levels sum to total_s within 1%",
        p.prefix.levels.sums_to_total(),
    );
    if !args.trace {
        drop(arc);
        setups.run_discarded(SETUPS.1, &SPEC, &inputs, stage);
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
    let traced = traced_phase(args, &inputs, &queries, &p.prefix.sim, &mut out);
    v.extend(host_values(&traced.0, &traced.1, p.prefix.host_s));
    out.values = v;
    out
}

/// A `TileProvider` over `Heaven` that records a `core.fetch` span
/// around every region fetch the rasql executor makes.
struct Traced<'a> {
    h: &'a mut Heaven,
    tr: &'a mut Tracer,
    req: u64,
    fetched: bool,
}

impl TileProvider for Traced<'_> {
    fn object_meta(&self, oid: ObjectId) -> heaven::arraydb::Result<ObjectMeta> {
        self.h.object_meta(oid)
    }
    fn collection_objects(&self, name: &str) -> heaven::arraydb::Result<Vec<ObjectId>> {
        self.h.collection_objects(name)
    }
    fn fetch_region(
        &mut self,
        oid: ObjectId,
        region: &Minterval,
    ) -> heaven::arraydb::Result<MDArray> {
        self.fetched = true;
        let h = &mut *self.h;
        self.tr
            .span(self.req, "core.fetch", || h.fetch_region(oid, region))
    }
    // `fetch_frame` keeps the trait's default, as `Heaven` does: it
    // assembles frames from the traced `fetch_region` above.
    fn precomputed(&mut self, oid: ObjectId, op: Condenser, region: &Minterval) -> Option<f64> {
        self.h.precomputed(oid, op, region)
    }
    fn note_computed(&mut self, oid: ObjectId, op: Condenser, region: &Minterval, value: f64) {
        self.h.note_computed(oid, op, region, value)
    }
    fn query_begin(&mut self, label: &str) {
        self.h.query_begin(label)
    }
    fn query_end(&mut self) {
        self.h.query_end()
    }
}

/// Bytes moved by the replayed kernels of the traced phase.
#[derive(Default)]
struct Moved {
    replay: ReplayBytes,
    condensed: u64,
}

/// Rebuild the system and run the deterministic prefix again with spans
/// and kernel replays. Returns the attribution and the bytes moved.
fn traced_phase(
    args: &Args,
    inputs: &[MDArray],
    queries: &[Query],
    untraced_sim: &[f64],
    out: &mut RunOut,
) -> (HostLayers, Moved) {
    let mut arc = world::archive(&SPEC, inputs, stage);
    let payloads = Payloads::rebuild(&arc.heaven, &arc.oids, inputs, out);
    let h = &mut arc.heaven;
    let mut tr = Tracer::new(Instant::now());
    let mut moved = Moved::default();
    let (mut replays_ok, mut sim_same) = (true, true);
    for (i, q) in queries.iter().take(PREFIX).enumerate() {
        let req = i as u64;
        let oid = arc.oids[q.obj];
        let text = q.text(oid);
        tr.enter(req, trace::ROOT);
        let parsed = tr.span(req, "arraydb.ql.parse", || parse_query(&text));
        tr.enter(req, "arraydb.ql.exec");
        let mut prov = Traced {
            h,
            tr: &mut tr,
            req,
            fetched: false,
        };
        let res = parsed.and_then(|pq| execute(&mut prov, &pq));
        let fetched = prov.fetched;
        tr.exit();
        tr.exit();
        let sim = world::sim_s(h.last_query_breakdown().map_or(0.0, |b| b.total_s));
        sim_same &= untraced_sim.get(i) == Some(&sim);
        out.attempted += 1;
        let ok = res.as_ref().is_ok_and(|r| check(r, q, oid, &inputs[q.obj]));
        out.failed += u64::from(!ok);
        if !ok || !fetched {
            // A precomputed condenser fetched nothing: nothing to replay.
            continue;
        }
        let arr = world::replay_region(
            &mut tr,
            req,
            "core.fetch",
            &payloads.metas[q.obj],
            &payloads,
            &q.region,
            &mut moved.replay,
        );
        let value = &res.as_ref().expect("checked above")[0].value;
        replays_ok &= match (q.kind, arr, value) {
            (Kind::Trim, Some(a), Value::Array(got)) => a.bytes() == got.bytes(),
            (Kind::Condense(op), Some(a), Value::Scalar(got)) => {
                let v = tr.replay(req, "array.condense", "arraydb.ql.exec", || op.eval(&a));
                moved.condensed += a.bytes().len() as u64;
                v.is_ok_and(|v| v.to_bits() == got.to_bits())
            }
            _ => false,
        };
    }
    out.check(
        "replayed kernels reproduce the entry point's bytes",
        replays_ok,
    );
    out.check("traced run repeats the untraced simulated times", sim_same);
    (crate::finish_trace(args, &tr, out), moved)
}

fn host_values(l: &HostLayers, moved: &Moved, untraced_host_s: f64) -> Values {
    let mut v = l.obs_values(untraced_host_s);
    v.extend(l.fetch_values(&moved.replay));
    v.insert(
        "array.condense.gb_s",
        l.gb_s("array.condense", moved.condensed as f64),
    );
    v.insert("arraydb.ql.parse_us", l.per_req("arraydb.ql.parse", 1e3));
    v.insert("arraydb.ql.exec_self_ms", l.per_req("arraydb.ql.exec", 1e6));
    v.insert("core.fetch.self_ms", l.per_req("core.fetch", 1e6));
    v
}
