//! The HEAVEN system: a hierarchy-aware array database.
//!
//! [`Heaven`] fuses the array DBMS with the tertiary-storage system
//! (paper §3.1): it implements the DBMS's [`TileProvider`] seam, so every
//! query runs transparently across main memory (tile cache), secondary
//! storage (DBMS tiles + super-tile cache) and tertiary storage
//! (super-tiles on media) — no user interaction, regardless of where the
//! data currently lives.
//!
//! `Heaven` is the one struct that owns the hierarchy. Query state sits
//! behind interior synchronisation — the array DBMS and the tape store
//! behind mutexes (the DBMS for its buffer pool, the store because the
//! tape library is physically serial), the super-tile and
//! precomputed-result catalogs behind reader/writer locks, both caches
//! lock-striped — so `Heaven` is `Send + Sync` and serves any number of
//! [`crate::Session`]s, which run the one retrieval body (see
//! [`crate::concurrent`]). The single-owner entry points
//! ([`Heaven::fetch_region_hierarchical`], [`Heaven::fetch_batch`], the
//! [`TileProvider`] impl) run that body on an exclusive session and
//! bracket each query into a [`QueryBreakdown`]. Archive operations
//! (export, maintenance, catalog rebuild) take `&mut self` and reach the
//! state through `get_mut`, which takes no lock.

use crate::cache::{CacheStats, SuperTileCache, TileCache};
use crate::catalog::SuperTileCatalog;
use crate::concurrent::FetchBatcher;
use crate::config::HeavenConfig;
use crate::error::{HeavenError, Result};
use crate::persist::CatalogStore;
use crate::precomp::PrecompCatalog;
use crate::recovery::RecoveryMetrics;
use crate::sizing::optimal_supertile_size;
use crate::supertile::{checksum64, SuperTileId};
use bytes::Bytes;
use heaven_array::{Codec, Condenser, MDArray, Minterval, ObjectId};
use heaven_arraydb::{ArrayDb, ObjectMeta, TileProvider};
use heaven_hsm::{BlockAddress, DirectStore};
use heaven_obs::{
    Counter, Field, FloatCounter, Histogram, MetricsRegistry, QueryBreakdown, SpanId, TraceBus,
};
use heaven_tape::{DiskProfile, SimClock, TapeLibrary, TapeStats, WritePayload};
use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard};
use std::fmt;
use std::sync::atomic::AtomicU64;
use std::time::Duration;

/// Counters of HEAVEN-level activity.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HeavenStats {
    /// Super-tiles fetched from tertiary storage (cache misses).
    pub st_tape_fetches: u64,
    /// Bytes fetched from tertiary storage.
    pub st_tape_bytes: u64,
    /// Super-tiles prefetched.
    pub prefetches: u64,
    /// Simulated seconds spent prefetching (overlappable background work).
    pub prefetch_s: f64,
    /// Bytes fetched by the prefetcher (subset of `st_tape_bytes`).
    pub prefetch_bytes: u64,
    /// Regions served by `fetch_region`.
    pub region_fetches: u64,
    /// Payload bytes memcpy'd while materializing query results. With the
    /// zero-copy read path this is ~one payload-sized copy per query (the
    /// patch into the result array); every other hierarchy hop is a
    /// refcounted slice.
    pub bytes_copied: u64,
}

impl fmt::Display for HeavenStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "region_fetches={} st_tape_fetches={} tape_read={}MB prefetches={} prefetch={:.1}s prefetch_read={}MB copied={}KB",
            self.region_fetches,
            self.st_tape_fetches,
            self.st_tape_bytes >> 20,
            self.prefetches,
            self.prefetch_s,
            self.prefetch_bytes >> 20,
            self.bytes_copied >> 10,
        )
    }
}

/// Metric handles of the retrieval path, `heaven.*` and `sched.*`;
/// [`HeavenStats`] is a view over them.
#[derive(Debug, Clone)]
pub(crate) struct HeavenMetrics {
    pub(crate) st_tape_fetches: Counter,
    pub(crate) st_tape_bytes: Counter,
    pub(crate) prefetches: Counter,
    pub(crate) prefetch_s: FloatCounter,
    pub(crate) prefetch_bytes: Counter,
    pub(crate) region_fetches: Counter,
    pub(crate) bytes_copied: Counter,
    /// Wire bytes saved by super-tile compression (payload − wire, when
    /// the encoded form is smaller).
    codec_bytes_saved: Counter,
    /// Super-tile payloads shipped as raw pass-through.
    codec_raw: Counter,
    /// Super-tile payloads encoded with plain RLE.
    codec_rle: Counter,
    /// Super-tile payloads encoded with byte-shuffle + RLE.
    codec_shuffle: Counter,
    /// Queries whose per-level attribution exceeded the observed clock
    /// delta (overlapping spans); their `other_s` was clamped to zero.
    breakdown_overattributed: Counter,
    /// End-to-end query latency distribution (simulated seconds).
    pub(crate) query_latency: Histogram,
    /// Tertiary super-tile fetch duration distribution (simulated s).
    pub(crate) st_fetch_hist: Histogram,
    /// Tertiary super-tile fetch size distribution (bytes).
    pub(crate) st_fetch_bytes_hist: Histogram,
    /// Tape fetches saved because a session's request coalesced onto an
    /// identical in-flight request of another session.
    pub(crate) coalesced_fetches: Counter,
    /// Cross-session staging batches drained.
    pub(crate) batches: Counter,
    /// Fetch requests staged through cross-session batches.
    pub(crate) batched_fetches: Counter,
    /// Batched fetches put back in the queue after a transient failure
    /// (retry) or for their replica copy (failover).
    pub(crate) requeued_fetches: Counter,
    /// Queued fetches flagged by the stall watchdog (once per fetch; see
    /// [`HeavenConfig::stall_window_mult`]).
    pub(crate) stalls: Counter,
    /// Per shared-session tertiary fetch: simulated seconds between
    /// enqueueing and the start of the staging round that served it.
    pub(crate) queue_wait: Histogram,
    /// Per shared-session tertiary fetch: simulated seconds from staging
    /// start to waiter notification.
    pub(crate) service: Histogram,
}

impl HeavenMetrics {
    fn new(registry: &MetricsRegistry) -> HeavenMetrics {
        let query_latency = registry.histogram("heaven.query_latency_s");
        // Pre-size the exemplar table so the per-query exemplar write
        // stays allocation-free.
        query_latency.reserve_exemplars();
        HeavenMetrics {
            st_tape_fetches: registry.counter("heaven.st_tape_fetches"),
            st_tape_bytes: registry.counter("heaven.st_tape_bytes"),
            prefetches: registry.counter("heaven.prefetches"),
            prefetch_s: registry.fcounter("heaven.prefetch_s"),
            prefetch_bytes: registry.counter("heaven.prefetch_bytes"),
            region_fetches: registry.counter("heaven.region_fetches"),
            bytes_copied: registry.counter("heaven.bytes_copied"),
            codec_bytes_saved: registry.counter("heaven.codec_bytes_saved"),
            codec_raw: registry.counter("heaven.codec_raw"),
            codec_rle: registry.counter("heaven.codec_rle"),
            codec_shuffle: registry.counter("heaven.codec_shuffle"),
            breakdown_overattributed: registry.counter("heaven.breakdown_overattributed"),
            query_latency,
            st_fetch_hist: registry.histogram("heaven.st_fetch_hist_s"),
            st_fetch_bytes_hist: registry.histogram("heaven.st_fetch_bytes"),
            coalesced_fetches: registry.counter("sched.coalesced_fetches"),
            batches: registry.counter("sched.batches"),
            batched_fetches: registry.counter("sched.batched_fetches"),
            requeued_fetches: registry.counter("sched.requeued_fetches"),
            stalls: registry.counter("sched.stalls"),
            queue_wait: registry.histogram("sched.queue_wait_s"),
            service: registry.histogram("sched.service_s"),
        }
    }

    fn stats(&self) -> HeavenStats {
        HeavenStats {
            st_tape_fetches: self.st_tape_fetches.get(),
            st_tape_bytes: self.st_tape_bytes.get(),
            prefetches: self.prefetches.get(),
            prefetch_s: self.prefetch_s.get(),
            prefetch_bytes: self.prefetch_bytes.get(),
            region_fetches: self.region_fetches.get(),
            bytes_copied: self.bytes_copied.get(),
        }
    }
}

/// Cross-level counter snapshot taken at query start; [`Heaven::end_query`]
/// diffs a fresh snapshot against it to attribute the elapsed simulated
/// time to hierarchy levels.
#[derive(Debug, Clone, Copy)]
struct LevelSnapshot {
    tape: TapeStats,
    shelf_s: f64,
    io_s: f64,
    st: CacheStats,
    mem: CacheStats,
    heaven: HeavenStats,
}

/// An open query bracket (root span + starting snapshot).
#[derive(Debug)]
struct ActiveQuery {
    label: String,
    span: SpanId,
    start_s: f64,
    snap: LevelSnapshot,
}

/// The assembled HEAVEN system (see the module docs for its locking).
#[derive(Debug)]
pub struct Heaven {
    pub(crate) adb: Mutex<ArrayDb>,
    pub(crate) store: Mutex<DirectStore>,
    pub(crate) catalog: RwLock<SuperTileCatalog>,
    pub(crate) precomp: RwLock<PrecompCatalog>,
    pub(crate) tile_cache: TileCache,
    pub(crate) st_cache: SuperTileCache,
    pub(crate) catalog_store: CatalogStore,
    pub(crate) config: HeavenConfig,
    pub(crate) metrics: HeavenMetrics,
    pub(crate) recovery: RecoveryMetrics,
    pub(crate) registry: MetricsRegistry,
    pub(crate) bus: TraceBus,
    /// The shared simulated clock (the tape library's).
    pub(crate) clock: SimClock,
    pub(crate) batcher: FetchBatcher,
    /// Monotone session-id source; ids key trace records (`"session":N`)
    /// and the profiler's per-session lanes.
    pub(crate) next_session: AtomicU64,
    active_query: Option<ActiveQuery>,
    last_breakdown: Option<QueryBreakdown>,
}

/// The multi-session name of [`Heaven`], which is itself `Send + Sync`.
pub type ConcurrentHeaven = Heaven;

impl Heaven {
    /// Assemble HEAVEN from an array DBMS and a tape library.
    ///
    /// All subsystem counters are bound into one shared
    /// [`MetricsRegistry`], and the trace bus selected by
    /// [`HeavenConfig::trace`] is attached across the hierarchy.
    pub fn new(mut adb: ArrayDb, library: TapeLibrary, config: HeavenConfig) -> Heaven {
        let registry = MetricsRegistry::new();
        let bus = TraceBus::from_config(&config.trace);
        let clock = library.clock().clone();
        let mut st_cache = SuperTileCache::with_shards(
            config.disk_cache_bytes,
            config.eviction,
            Some((DiskProfile::scsi2003(), clock.clone())),
            config.cache_shards,
        );
        st_cache.attach_obs(&registry, bus.clone());
        let mut tile_cache = TileCache::with_shards(config.mem_cache_bytes, config.cache_shards);
        tile_cache.attach_obs(&registry);
        adb.attach_obs(&registry);
        adb.attach_trace(bus.clone());
        let mut store = DirectStore::new(library);
        store.library_mut().attach_obs(&registry, bus.clone());
        let catalog_store = CatalogStore::create(adb.database_mut()).expect("fresh catalog store");
        Heaven {
            tile_cache,
            st_cache,
            adb: Mutex::new(adb),
            store: Mutex::new(store),
            catalog: RwLock::new(SuperTileCatalog::new()),
            precomp: RwLock::new(PrecompCatalog::new()),
            catalog_store,
            config,
            metrics: HeavenMetrics::new(&registry),
            recovery: RecoveryMetrics::new(&registry),
            registry,
            bus,
            clock,
            batcher: FetchBatcher::new(Duration::from_millis(2)),
            next_session: AtomicU64::new(1),
            active_query: None,
            last_breakdown: None,
        }
    }

    /// The array DBMS (a lock guard: drop it before the next call that
    /// touches the DBMS).
    pub fn arraydb(&self) -> MutexGuard<'_, ArrayDb> {
        self.adb.lock()
    }

    /// The direct tertiary store (a lock guard, for reporting).
    pub fn store(&self) -> MutexGuard<'_, DirectStore> {
        self.store.lock()
    }

    /// Mutable access to the array DBMS (inserts, collection management).
    pub fn arraydb_mut(&mut self) -> &mut ArrayDb {
        self.adb.get_mut()
    }

    /// The shared simulated clock.
    pub fn clock(&self) -> SimClock {
        self.clock.clone()
    }

    /// Tertiary-storage statistics.
    pub fn tape_stats(&self) -> TapeStats {
        self.store.lock().stats()
    }

    /// HEAVEN-level statistics (a view over the metrics registry).
    pub fn stats(&self) -> HeavenStats {
        self.metrics.stats()
    }

    /// The shared metrics registry holding every subsystem's counters
    /// (tape, HSM, buffer pool, caches, HEAVEN itself).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The trace bus (span/event/link stream keyed to simulated time).
    pub fn trace(&self) -> &TraceBus {
        &self.bus
    }

    /// The per-level breakdown of the most recently completed
    /// single-owner query.
    pub fn last_query_breakdown(&self) -> Option<&QueryBreakdown> {
        self.last_breakdown.as_ref()
    }

    fn snapshot(&mut self) -> LevelSnapshot {
        let store = self.store.get_mut();
        LevelSnapshot {
            tape: store.stats(),
            shelf_s: store.library().shelf_wait_s(),
            io_s: self.adb.get_mut().database().io_stats().io_s,
            st: self.st_cache.stats(),
            mem: self.tile_cache.stats(),
            heaven: self.stats(),
        }
    }

    /// Open a query bracket: a root `query` trace span plus a counter
    /// snapshot from which [`Self::end_query`] attributes the elapsed
    /// simulated time to hierarchy levels. Nested calls are ignored — the
    /// outermost bracket wins.
    pub fn begin_query(&mut self, label: &str) {
        if self.active_query.is_some() {
            return;
        }
        let now = self.clock.now_s();
        let span = self
            .bus
            .span_start("query", now, &[("label", Field::dyn_str(label))]);
        self.active_query = Some(ActiveQuery {
            label: label.to_string(),
            span,
            start_s: now,
            snap: self.snapshot(),
        });
    }

    /// Close the query bracket opened by [`Self::begin_query`] and compute
    /// the per-level [`QueryBreakdown`] (also kept for
    /// [`Self::last_query_breakdown`]). Returns `None` if no query was
    /// active.
    pub fn end_query(&mut self) -> Option<QueryBreakdown> {
        let q = self.active_query.take()?;
        let now = self.clock.now_s();
        self.bus.span_end(q.span, now);
        let cur = self.snapshot();
        let tape = cur.tape.since(&q.snap.tape);
        let st = cur.st.since(&q.snap.st);
        let mem = cur.mem.since(&q.snap.mem);
        let total_s = (now - q.start_s).max(0.0);
        let mut b = QueryBreakdown {
            label: q.label,
            total_s,
            mem_hits: mem.hits,
            mem_bytes: mem.bytes_served,
            disk_cache_s: st.io_s,
            disk_cache_hits: st.hits,
            disk_cache_bytes: st.bytes_served,
            dbms_io_s: (cur.io_s - q.snap.io_s).max(0.0),
            tape_exchange_s: tape.exchange_s,
            tape_locate_s: tape.locate_s,
            tape_transfer_s: tape.transfer_s,
            tape_rewind_s: tape.rewind_s,
            shelf_s: (cur.shelf_s - q.snap.shelf_s).max(0.0),
            tape_bytes: tape.bytes_read,
            media_exchanges: tape.mounts,
            tape_fetches: cur
                .heaven
                .st_tape_fetches
                .saturating_sub(q.snap.heaven.st_tape_fetches),
            bytes_copied: cur
                .heaven
                .bytes_copied
                .saturating_sub(q.snap.heaven.bytes_copied),
            other_s: 0.0,
        };
        // Attributed span time can exceed the observed clock delta when
        // spans overlap (e.g. prefetch I/O charged inside the bracket);
        // clamp to zero and count the occurrence rather than reporting a
        // negative residual.
        let residual = total_s - b.levels_sum_s();
        if residual < -1e-9 {
            self.metrics.breakdown_overattributed.inc();
        }
        b.other_s = residual.max(0.0);
        // Stamp the query's own span as the exemplar so a p99 bucket in
        // the Prometheus exposition points straight at a trace span
        // (`q.span == 0` — sampled-out or tracing off — degrades to a
        // plain observe).
        self.metrics
            .query_latency
            .observe_with_exemplar(total_s, q.span, q.span);
        // No per-query flush: the JSONL sink drains in batches off the
        // hot path and flushes on drop (see `heaven-obs`).
        self.last_breakdown = Some(b.clone());
        Some(b)
    }

    /// Disk super-tile cache statistics.
    pub fn st_cache_stats(&self) -> CacheStats {
        self.st_cache.stats()
    }

    /// Memory tile cache statistics.
    pub fn tile_cache_stats(&self) -> CacheStats {
        self.tile_cache.stats()
    }

    /// The super-tile catalog (a read guard).
    pub fn catalog(&self) -> RwLockReadGuard<'_, SuperTileCatalog> {
        self.catalog.read()
    }

    /// The precomputed-result catalog statistics.
    pub fn precomp_stats(&self) -> crate::precomp::PrecompStats {
        self.precomp.read().stats()
    }

    /// The active configuration.
    pub fn config(&self) -> &HeavenConfig {
        &self.config
    }

    /// The effective super-tile target size for export.
    pub fn supertile_target(&self) -> u64 {
        self.config.supertile_bytes.unwrap_or_else(|| {
            optimal_supertile_size(
                self.store.lock().library().profile(),
                self.config.expected_query_bytes,
            )
        })
    }

    /// The identity: `Heaven` itself serves concurrent sessions (see
    /// [`Heaven::session`]).
    pub fn into_concurrent(self) -> ConcurrentHeaven {
        self
    }

    /// The batching window: how long (host time) a drainer waits for peer
    /// sessions to enqueue before staging the merged batch. Zero disables
    /// the wait (requests still coalesce when they genuinely overlap).
    pub fn set_batch_window(&mut self, window: Duration) {
        self.batcher.window = window;
    }

    /// Clear both cache levels (between experiment runs).
    pub fn clear_caches(&self) {
        self.tile_cache.clear();
        self.st_cache.clear();
    }

    /// Enable the finite-slot + shelf model on the underlying library
    /// (see [`heaven_tape::SlotConfig`]).
    pub fn set_slot_config(&mut self, config: heaven_tape::SlotConfig) {
        self.store.get_mut().library_mut().set_slot_config(config);
    }

    /// Arm (or disarm, with `None`) deterministic fault injection on the
    /// underlying library (see [`heaven_tape::FaultConfig`]). Typically
    /// combined with [`HeavenConfig::dual_copy`] so injected failures are
    /// recoverable.
    pub fn set_fault_plan(&self, config: Option<heaven_tape::FaultConfig>) {
        self.store.lock().library_mut().set_fault_plan(config);
    }

    /// Occupy every drive with scratch media, modelling other users of the
    /// shared library: the next archive access pays a full media exchange.
    /// Used by experiments to measure truly cold retrievals.
    pub fn occupy_drives(&mut self) -> Result<()> {
        let lib = self.store.get_mut().library_mut();
        for _ in 0..lib.drive_count() {
            let scratch = lib.add_medium();
            lib.ensure_mounted(scratch)?;
        }
        Ok(())
    }

    // -- catalog mutation (write-through to the base RDBMS) -------------------

    /// Encode an outgoing super-tile payload and append it to tape, plus
    /// a second copy under dual-copy archival — deliberately kept off the
    /// primary's medium so one dead tape can't take both. Returns both
    /// addresses and the wire checksum.
    pub(crate) fn write_supertile(
        &mut self,
        payload: Bytes,
        cell_size: usize,
    ) -> Result<(BlockAddress, Option<BlockAddress>, u64)> {
        let wire = self.maybe_compress(payload, cell_size);
        let checksum = checksum64(&wire);
        let store = self.store.get_mut();
        let addr = store.append(WritePayload::Real(wire.clone()))?;
        let replica = if self.config.dual_copy {
            Some(store.append_replica(WritePayload::Real(wire), addr.medium)?)
        } else {
            None
        };
        Ok((addr, replica, checksum))
    }

    /// Register an exported super-tile in the in-memory catalog *and* the
    /// persistent catalog tables, together with its optional second
    /// archive copy and wire-payload checksum.
    pub(crate) fn register_supertile(
        &mut self,
        meta: crate::supertile::SuperTileMeta,
        addr: BlockAddress,
        replica: Option<BlockAddress>,
        checksum: u64,
    ) -> Result<()> {
        self.catalog_store.insert(
            self.adb.get_mut().database_mut(),
            &meta,
            addr,
            replica,
            checksum,
        )?;
        let st = meta.id;
        self.catalog.get_mut().register(meta, addr);
        self.catalog.get_mut().set_checksum(st, checksum);
        if let Some(r) = replica {
            self.catalog.get_mut().register_replica(st, r);
        }
        Ok(())
    }

    /// Remove one super-tile everywhere; its copies become dead space.
    pub(crate) fn unregister_supertile(&mut self, st: SuperTileId) -> Result<()> {
        self.catalog.get_mut().remove_supertile(st)?;
        self.catalog_store
            .remove(self.adb.get_mut().database_mut(), st)
    }

    /// Remove an object's super-tiles everywhere; their copies become
    /// dead space.
    pub(crate) fn unregister_object(&mut self, oid: ObjectId) -> Result<()> {
        let sts = self.catalog.get_mut().object_supertiles(oid);
        for st in &sts {
            self.catalog_store
                .remove(self.adb.get_mut().database_mut(), *st)?;
        }
        self.catalog.get_mut().remove_object(oid);
        Ok(())
    }

    /// Change the address of one archive copy of a super-tile (the
    /// replica if `is_replica`, else the primary) everywhere (compaction).
    pub(crate) fn relocate_copy(
        &mut self,
        st: SuperTileId,
        addr: BlockAddress,
        is_replica: bool,
    ) -> Result<()> {
        let cat = self.catalog.get_mut();
        if is_replica {
            cat.register_replica(st, addr);
        } else {
            cat.relocate(st, addr)?;
        }
        let meta = cat.meta(st)?.clone();
        // Compaction rewrites the identical wire bytes, so the other copy
        // and the checksum carry over unchanged.
        let (primary, replica) = (cat.address(st)?, cat.replica(st));
        let checksum = cat.checksum(st).unwrap_or(0);
        self.catalog_store.update_addr(
            self.adb.get_mut().database_mut(),
            st,
            &meta,
            primary,
            replica,
            checksum,
        )?;
        Ok(())
    }

    /// Rebuild the archive catalog from the persistent tables — used after
    /// a server restart or RDBMS crash recovery.
    pub fn rebuild_archive_catalog(&mut self) -> Result<()> {
        let loaded = self
            .catalog_store
            .load_all(self.adb.get_mut().database_mut())?;
        let mut catalog = SuperTileCatalog::new();
        let mut max_id = 0;
        for (meta, addr, replica, checksum) in loaded {
            max_id = max_id.max(meta.id);
            let st = meta.id;
            catalog.register(meta, addr);
            catalog.set_checksum(st, checksum);
            if let Some(r) = replica {
                catalog.register_replica(st, r);
            }
        }
        catalog.bump_next_id(max_id);
        debug_assert_eq!(self.catalog_store.len(), catalog.len());
        *self.catalog.get_mut() = catalog;
        self.clear_caches();
        Ok(())
    }

    // -- the retrieval path (paper §3.5.2; the body is `Session`'s) --------

    /// Encode an outgoing super-tile payload if configured: the adaptive
    /// codec probes a sample and picks raw / RLE / shuffle-RLE per
    /// payload. Incompressible payloads stay zero-copy (refcount clone);
    /// with compression off this is a pass-through.
    pub(crate) fn maybe_compress(&self, payload: Bytes, cell_size: usize) -> Bytes {
        if !self.config.compress {
            return payload;
        }
        let in_len = payload.len() as u64;
        let (wire, codec) = heaven_array::encode_wire(&payload, cell_size, &self.config.codec);
        match codec {
            Codec::Raw => self.metrics.codec_raw.inc(),
            Codec::Rle => self.metrics.codec_rle.inc(),
            Codec::ShuffleRle => self.metrics.codec_shuffle.inc(),
        }
        let out_len = wire.len() as u64;
        if out_len < in_len {
            self.metrics.codec_bytes_saved.add(in_len - out_len);
        }
        if codec != Codec::Raw {
            // Encoded forms are fresh allocations; raw is a refcount bump.
            self.metrics.bytes_copied.add(out_len);
        }
        self.bus.event(
            "heaven.codec_encode",
            self.clock.now_s(),
            &[
                ("codec", codec.name().into()),
                ("in_bytes", in_len.into()),
                ("out_bytes", out_len.into()),
            ],
        );
        wire
    }

    /// Undo [`Self::maybe_compress`] on wire bytes read from tape.
    /// `expected_len` is the catalogued uncompressed payload length; it
    /// disambiguates untagged raw pass-through (wire length equals it)
    /// from legacy pre-frame RLE streams, keeping the raw path O(1).
    /// Zero-copy when compression is off or the payload shipped raw.
    pub(crate) fn maybe_decompress(&self, bytes: Bytes, expected_len: u64) -> Result<Bytes> {
        if !self.config.compress {
            return Ok(bytes);
        }
        let (out, codec) = heaven_array::decode_wire(&bytes, expected_len)
            .map_err(|e| HeavenError::Codec(format!("corrupt compressed super-tile: {e}")))?;
        if codec != Codec::Raw {
            self.metrics.bytes_copied.add(out.len() as u64);
        }
        Ok(out)
    }

    /// A super-tile's uncompressed payload, staged if it is not cached.
    pub(crate) fn supertile_payload(&self, st: SuperTileId) -> Result<Bytes> {
        self.exclusive_session().supertile_payload(st)
    }

    /// Run `f` as one query bracket labelled `label()`, unless a bracket
    /// is already open (direct API calls still get a breakdown; calls
    /// inside a rasql query join its bracket).
    fn bracketed<R>(
        &mut self,
        label: impl FnOnce() -> String,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let auto_bracket = self.active_query.is_none();
        if auto_bracket {
            self.begin_query(&label());
        }
        let result = f(self);
        if auto_bracket {
            self.end_query();
        }
        result
    }

    /// The core retrieval routine: materialize `region` of `oid` across
    /// the whole hierarchy, with query scheduling over the tertiary
    /// fetches.
    pub fn fetch_region_hierarchical(
        &mut self,
        oid: ObjectId,
        region: &Minterval,
    ) -> Result<MDArray> {
        self.bracketed(
            || format!("fetch_region oid={oid} {region}"),
            |h| {
                let span = h.bus.span_start(
                    "heaven.fetch_region",
                    h.clock.now_s(),
                    &[
                        ("oid", oid.into()),
                        ("region", Field::dyn_str(&region.to_string())),
                    ],
                );
                let result = h.exclusive_session().fetch_region_inner(oid, region);
                h.bus.span_end(span, h.clock.now_s());
                result
            },
        )
    }

    /// Execute a *batch* of region queries with inter-query scheduling
    /// (paper §3.5.3): the tertiary fetches of all queries are merged,
    /// deduplicated and ordered (one visit per medium, ascending offsets),
    /// staged through the cache hierarchy, and only then is each query's
    /// result assembled. Results are returned in request order.
    pub fn fetch_batch(&mut self, requests: &[(ObjectId, Minterval)]) -> Result<Vec<MDArray>> {
        self.bracketed(
            || format!("batch of {} regions", requests.len()),
            |h| {
                h.exclusive_session().stage_batch(requests)?;
                // Assemble each query (cache hits all the way).
                requests
                    .iter()
                    .map(|(oid, region)| h.fetch_region_hierarchical(*oid, region))
                    .collect()
            },
        )
    }
}

/// The single-owner provider: the exclusive session's, plus the
/// per-query breakdown bracket.
impl TileProvider for Heaven {
    fn object_meta(&self, oid: ObjectId) -> heaven_arraydb::Result<ObjectMeta> {
        self.exclusive_session().object_meta(oid)
    }

    fn collection_objects(&self, name: &str) -> heaven_arraydb::Result<Vec<ObjectId>> {
        self.exclusive_session().collection_objects(name)
    }

    fn fetch_region(
        &mut self,
        oid: ObjectId,
        region: &Minterval,
    ) -> heaven_arraydb::Result<MDArray> {
        self.fetch_region_hierarchical(oid, region)
            .map_err(Into::into)
    }

    fn precomputed(&mut self, oid: ObjectId, op: Condenser, region: &Minterval) -> Option<f64> {
        self.exclusive_session().precomputed(oid, op, region)
    }

    fn note_computed(&mut self, oid: ObjectId, op: Condenser, region: &Minterval, value: f64) {
        self.exclusive_session()
            .note_computed(oid, op, region, value);
    }

    fn query_begin(&mut self, label: &str) {
        self.begin_query(label);
    }

    fn query_end(&mut self) {
        self.end_query();
    }
}
