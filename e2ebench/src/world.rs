//! Inputs, system construction, the output oracle and the kernel
//! replays shared by every workload.

use crate::stats::median;
use crate::trace::Tracer;
use bytes::Bytes;
use heaven::array::{
    decode_wire, encode_wire, CellType, CodecPolicy, Condenser, MDArray, Minterval, ObjectId, Tile,
    TileId, Tiling,
};
use heaven::arraydb::ObjectMeta;
use heaven::core::{
    checksum64, decode_member, encode_supertile, ExportMode, ExportReport, Heaven, HeavenConfig,
    SuperTileId, SuperTileMeta,
};
use heaven::tape::DeviceProfile;
use std::collections::HashMap;
use std::time::Instant;

/// Collection every workload stores its fields in.
pub const COLL: &str = "climate";
/// Tile edge in cells: 32³ F32 cells = 128 KiB per tile.
pub const TILE_EDGE: u64 = 32;
/// Super-tile target size.
pub const SUPERTILE_BYTES: u64 = 1 << 20;
/// Tape drives in the `ibm3590` library.
pub const DRIVES: usize = 2;
/// Bytes per F32 cell.
const CELL_BYTES: usize = 4;
/// Relative tolerance of a condenser result against the oracle.
pub const CONDENSE_REL_TOL: f64 = 1e-9;
/// MB, as used by every MB-based metric (10^6 bytes).
pub const MB: f64 = 1e6;

/// Seeded `climate_field` inputs: `n` 3-D F32 objects of `shape` cells.
/// Object `i` uses its own seed derived from `seed`.
pub fn climate_inputs(n: usize, shape: [i64; 3], seed: u64) -> Vec<MDArray> {
    let domain = Minterval::new(&[(0, shape[0] - 1), (0, shape[1] - 1), (0, shape[2] - 1)])
        .expect("positive shape");
    (0..n as u64)
        .map(|i| heaven::workload::climate_field(domain.clone(), mix(seed, i)))
        .collect()
}

/// Derive an independent 64-bit seed (splitmix64 finaliser).
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A simulated duration on the `SimClock`'s microsecond grid, without the
/// float noise of subtracting two absolute clock readings.
pub fn sim_s(seconds: f64) -> f64 {
    (seconds * 1e6).round() / 1e6
}

/// Payload bytes of a set of inputs.
pub fn user_bytes(inputs: &[MDArray]) -> u64 {
    inputs.iter().map(|a| a.bytes().len() as u64).sum()
}

/// The cache, copy and placement settings a workload runs with.
#[derive(Debug, Clone, Copy)]
pub struct SysSpec {
    /// Memory tile cache bytes.
    pub mem_cache: u64,
    /// Disk super-tile cache bytes.
    pub disk_cache: u64,
    /// Write every super-tile to two media.
    pub dual_copy: bool,
    /// Start every exported object on a fresh medium.
    pub medium_per_object: bool,
    /// Lock stripes per cache level.
    pub cache_shards: usize,
}

impl SysSpec {
    /// The `HeavenConfig` of this spec: 1 MiB super-tiles, adaptive
    /// compression, everything else at its default.
    pub fn config(&self) -> HeavenConfig {
        HeavenConfig {
            supertile_bytes: Some(SUPERTILE_BYTES),
            mem_cache_bytes: self.mem_cache,
            disk_cache_bytes: self.disk_cache,
            compress: true,
            dual_copy: self.dual_copy,
            medium_per_object: self.medium_per_object,
            cache_shards: self.cache_shards,
            ..HeavenConfig::default()
        }
    }
}

/// A fresh system (`heaven::open`, 64 MiB rdbms buffer pool) with the
/// benchmark's collection created.
pub fn build(spec: &SysSpec) -> Heaven {
    let mut h = heaven::open(DeviceProfile::ibm3590(), DRIVES, spec.config());
    h.arraydb_mut()
        .create_collection(COLL, CellType::F32, 3)
        .expect("fresh database takes a collection");
    h
}

/// Insert one input with the benchmark's regular 32³ tiling.
pub fn insert(h: &mut Heaven, input: &MDArray) -> ObjectId {
    let tiling = Tiling::Regular {
        tile_shape: vec![TILE_EDGE; 3],
    };
    h.arraydb_mut()
        .insert_object(COLL, input, tiling)
        .expect("insert into the benchmark collection")
}

/// Export one object with the decoupled TCT path.
pub fn export(h: &mut Heaven, oid: ObjectId) -> ExportReport {
    h.export_object(oid, ExportMode::Tct)
        .expect("export of a freshly inserted object")
}

/// A built, ingested and exported system plus the host time of each step.
pub struct Archive {
    pub heaven: Heaven,
    pub oids: Vec<ObjectId>,
    pub reports: Vec<ExportReport>,
    pub total_s: f64,
    pub ingest_s: f64,
    pub export_s: f64,
}

/// Build, ingest every input, export every object, then run `stage`;
/// every step counts towards the setup time.
pub fn archive(spec: &SysSpec, inputs: &[MDArray], stage: impl FnOnce(&mut Archive)) -> Archive {
    let t0 = Instant::now();
    let mut heaven = build(spec);
    let t1 = Instant::now();
    let oids: Vec<ObjectId> = inputs.iter().map(|a| insert(&mut heaven, a)).collect();
    let t2 = Instant::now();
    let reports = oids.iter().map(|&o| export(&mut heaven, o)).collect();
    let t3 = Instant::now();
    let mut a = Archive {
        heaven,
        oids,
        reports,
        total_s: 0.0,
        ingest_s: (t2 - t1).as_secs_f64(),
        export_s: (t3 - t2).as_secs_f64(),
    };
    stage(&mut a);
    a.total_s = t0.elapsed().as_secs_f64();
    a
}

/// Medians over the repeated set-ups of one run.
#[derive(Debug, Clone, Copy)]
pub struct SetupSummary {
    pub setup_s: f64,
    pub ingest_mb_s: Option<f64>,
    pub export_mb_s: Option<f64>,
    pub export_sim_s: f64,
    pub tape_bytes_per_user_byte: Option<f64>,
}

/// Host times of the set-ups made in one run. Workloads make some before
/// the timed phase (the last one is the system they measure) and the
/// rest after it, so the medians span the run rather than one moment of
/// a machine whose speed drifts.
pub struct Setups {
    user_bytes: f64,
    totals: Vec<f64>,
    ingest: Vec<f64>,
    export: Vec<f64>,
    export_sim_s: f64,
    tape_bytes: f64,
}

impl Setups {
    pub fn new(inputs: &[MDArray]) -> Setups {
        Setups {
            user_bytes: user_bytes(inputs) as f64,
            totals: Vec::new(),
            ingest: Vec::new(),
            export: Vec::new(),
            export_sim_s: 0.0,
            tape_bytes: 0.0,
        }
    }

    /// One timed set-up; returns the system it built.
    pub fn run(
        &mut self,
        spec: &SysSpec,
        inputs: &[MDArray],
        stage: impl FnOnce(&mut Archive),
    ) -> Archive {
        let a = archive(spec, inputs, stage);
        let mb = self.user_bytes / MB;
        self.totals.push(a.total_s);
        self.ingest.push(mb / a.ingest_s);
        self.export.push(mb / a.export_s);
        self.export_sim_s = a.reports.iter().map(|r| r.pipelined_s).sum();
        self.tape_bytes = a.heaven.tape_stats().bytes_written as f64;
        a
    }

    /// `n` set-ups whose systems are dropped at once.
    pub fn run_discarded(
        &mut self,
        n: usize,
        spec: &SysSpec,
        inputs: &[MDArray],
        mut stage: impl FnMut(&mut Archive),
    ) {
        for _ in 0..n {
            drop(self.run(spec, inputs, &mut stage));
        }
    }

    pub fn summary(&self) -> SetupSummary {
        SetupSummary {
            setup_s: median(&self.totals).expect("a set-up ran"),
            ingest_mb_s: median(&self.ingest),
            export_mb_s: median(&self.export),
            export_sim_s: self.export_sim_s,
            tape_bytes_per_user_byte: crate::stats::ratio(self.tape_bytes, self.user_bytes),
        }
    }
}

// -- the output oracle --------------------------------------------------------

/// A region result is byte-exact against `MDArray::extract` of the input.
pub fn region_ok(got: &MDArray, input: &MDArray, region: &Minterval) -> bool {
    match input.extract(region) {
        Ok(want) => {
            want.domain() == got.domain()
                && want.cell_type() == got.cell_type()
                && want.bytes() == got.bytes()
        }
        Err(_) => false,
    }
}

/// A condenser result agrees with `Condenser::eval` on the extract
/// within [`CONDENSE_REL_TOL`].
pub fn condense_ok(got: f64, input: &MDArray, region: &Minterval, op: Condenser) -> bool {
    let Ok(want) = input.extract(region).and_then(|a| op.eval(&a)) else {
        return false;
    };
    (got - want).abs() <= CONDENSE_REL_TOL * want.abs().max(1.0)
}

// -- kernel replays -----------------------------------------------------------

/// One super-tile rebuilt from the benchmark's copy of the input.
pub struct StPayload {
    pub meta: SuperTileMeta,
    /// Uncompressed payload (what the caches hold).
    pub payload: Bytes,
    /// Wire bytes (what the tape holds).
    pub wire: Bytes,
}

/// Every archived super-tile, rebuilt by the benchmark and checked
/// against the archive's own catalog and checksums.
#[derive(Default)]
pub struct Payloads {
    pub sts: HashMap<SuperTileId, StPayload>,
    pub tile_st: HashMap<TileId, SuperTileId>,
    /// Object metadata, in the order of the `oids` rebuilt.
    pub metas: Vec<ObjectMeta>,
}

impl Payloads {
    /// Rebuild the payloads of `oids` (whose inputs are `inputs`) from the
    /// catalog's member directories. A payload or wire image that differs
    /// from what the export wrote fails the run's archive check.
    pub fn rebuild(
        h: &Heaven,
        oids: &[ObjectId],
        inputs: &[MDArray],
        out: &mut crate::RunOut,
    ) -> Payloads {
        let mut p = Payloads::default();
        for (&oid, input) in oids.iter().zip(inputs) {
            p.metas
                .push(h.arraydb().object(oid).expect("inserted object").clone());
            if let Err(e) = p.add_object(h, oid, input, &h.config().codec) {
                eprintln!("archive differs from the benchmark's input: {e}");
                out.check("archive matches the input", false);
            }
        }
        p
    }

    /// Rebuild and check one object's super-tiles.
    pub fn add_object(
        &mut self,
        h: &Heaven,
        oid: ObjectId,
        input: &MDArray,
        policy: &CodecPolicy,
    ) -> Result<(), String> {
        let cat = h.catalog();
        for st in cat.object_supertiles(oid) {
            let meta = cat.meta(st).map_err(|e| e.to_string())?.clone();
            let tiles: Vec<Tile> = meta
                .members
                .iter()
                .map(|m| input.extract(&m.domain).map(|d| Tile::new(m.tile, oid, d)))
                .collect::<Result<_, _>>()
                .map_err(|e| e.to_string())?;
            let (payload, rebuilt) = encode_supertile(st, oid, &tiles);
            if rebuilt != meta {
                return Err(format!("super-tile {st}: directory differs from export"));
            }
            let (wire, _) = encode_wire(&payload, CELL_BYTES, policy);
            if cat.checksum(st) != Some(checksum64(&wire)) {
                return Err(format!("super-tile {st}: wire bytes differ from export"));
            }
            for m in &meta.members {
                self.tile_st.insert(m.tile, st);
            }
            self.sts.insert(
                st,
                StPayload {
                    meta,
                    payload,
                    wire,
                },
            );
        }
        Ok(())
    }

    /// Distinct super-tiles holding the tiles of `region`, ascending.
    pub fn supertiles_of(&self, meta: &ObjectMeta, region: &Minterval) -> Vec<SuperTileId> {
        let mut sts: Vec<SuperTileId> = meta
            .tiles_intersecting(region)
            .iter()
            .filter_map(|t| self.tile_st.get(t).copied())
            .collect();
        sts.sort_unstable();
        sts.dedup();
        sts
    }
}

/// Bytes a replay moved through each kernel.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplayBytes {
    pub patched: u64,
    pub decoded_wire: u64,
}

/// Replay the fetch path's kernels for `region` of `meta` — tile index
/// lookup, member decode and patch — inside the measured span `into`,
/// and return the assembled array (to compare with the entry point's).
pub fn replay_region(
    tr: &mut Tracer,
    req: u64,
    into: &'static str,
    meta: &ObjectMeta,
    payloads: &Payloads,
    region: &Minterval,
    bytes: &mut ReplayBytes,
) -> Option<MDArray> {
    let target = meta.domain.intersection(region)?;
    let tids = tr.replay(req, "array.index", into, || {
        meta.tiles_intersecting(&target)
    });
    let tiles = tr.replay(req, "array.tile_decode", into, || {
        tids.iter()
            .map(|t| {
                let st = payloads.sts.get(payloads.tile_st.get(t)?)?;
                decode_member(&st.meta, &st.payload, *t).ok()
            })
            .collect::<Option<Vec<Tile>>>()
    })?;
    let out = tr.replay(req, "array.patch", into, || {
        let mut out = MDArray::zeros(target.clone(), meta.cell_type);
        for t in &tiles {
            out.patch(&t.data).ok()?;
        }
        Some(out)
    })?;
    bytes.patched += out.bytes().len() as u64;
    Some(out)
}

/// Replay `decode_wire` on super-tiles `sts` inside span `into`; false
/// when a decode does not reproduce the archived payload.
pub fn replay_decode_wire(
    tr: &mut Tracer,
    req: u64,
    into: &'static str,
    payloads: &Payloads,
    sts: &[SuperTileId],
    bytes: &mut ReplayBytes,
) -> bool {
    let mut ok = true;
    for st in sts {
        let Some(p) = payloads.sts.get(st) else {
            return false;
        };
        let out = tr.replay(req, "array.codec.decode", into, || {
            decode_wire(&p.wire, p.meta.total_len)
        });
        bytes.decoded_wire += p.meta.total_len;
        ok &= matches!(out, Ok((b, _)) if b[..] == p.payload[..]);
    }
    ok
}
