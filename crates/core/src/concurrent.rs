//! Query sessions: the one retrieval engine of the HEAVEN hierarchy.
//!
//! Every query, whatever entry point issued it, runs [`Session`]'s body:
//! classify the needed tiles (memory tile cache → DBMS disk → exported
//! super-tiles), take cached super-tiles first and then the tape misses
//! in [`schedule`]d order, read only the member tiles of a sparse
//! request on random-access media, stage, decode and patch, and prefetch
//! successors in cluster order (paper §3.5–§3.6). A session is
//!
//! * **exclusive** — run by [`Heaven`]'s single-owner entry points
//!   (`&mut self` proves no peer exists): its lane *is* the shared clock
//!   and it stages tape reads directly; or
//! * **shared** — opened by [`Heaven::session`] on `&self`, any number
//!   at a time. Each forks the shared [`SimClock`] into a private lane
//!   charged with its overlappable work (disk-cache reads) and re-joins
//!   the shared timeline on drop, so N sessions' makespan is the slowest
//!   lane. Both cache levels are lock-striped. Tape misses go through the
//!   `FetchBatcher`: one waiting session becomes the *drainer*, waits a
//!   short batching window for peers (each arrival re-arms a quiet
//!   period), then stages the merged batch in one scheduled,
//!   drive-parallel sweep; duplicate requests **coalesce** onto one tape
//!   read (`sched.coalesced_fetches`). With
//!   [`crate::HeavenConfig::cross_session_batching`] off, shared sessions
//!   stage directly (per-session FIFO, the baseline).
//!
//! Two drivers move a super-tile from tape into the disk cache, both over
//! the one recovery step of `crate::recovery` (retry the copy, fail
//! over to the replica, or fail with a typed error):
//!
//! * **direct staging** (`Session::stage`) treats the tape as a serial
//!   server: a request issued at lane time *t* starts no earlier than
//!   *t*, re-reads wait out their backoff, and the lane re-joins the
//!   shared clock once the payload is cached. The lane moves are no-ops
//!   for the exclusive session, so a lone direct-staging session costs
//!   exactly what the single-owner facade costs.
//! * **batched staging** (`FetchBatcher::drain_all`) steps every result
//!   of a drive-parallel round: a re-read is *requeued*
//!   (`sched.requeued_fetches`) with its coalesced waiters intact and
//!   staged by the next drain pass, which charges one backoff (the
//!   largest owed); a typed error resolves every waiter.
//!
//! Tracing is causal across sessions: each waiter's `heaven.st_fetch`
//! span *links* to the `sched.batch` span that staged it, a
//! `sched.served` event splits its latency into queue vs service time,
//! and a deterministic stall watchdog
//! ([`crate::HeavenConfig::stall_window_mult`]) flags fetches that
//! survive too many drain passes.

use crate::config::PrefetchPolicy;
use crate::error::{HeavenError, Result};
use crate::recovery::{PendingFetch, Step};
use crate::scheduler::{count_exchanges, plan_drive_rounds, schedule, FetchRequest};
use crate::supertile::{decode_member, SuperTileId, SuperTileMeta};
use crate::system::Heaven;
use bytes::Bytes;
use heaven_array::{Condenser, MDArray, Minterval, ObjectId, Tile, TileId};
use heaven_arraydb::{ObjectMeta, TileLocation, TileProvider};
use heaven_hsm::BlockAddress;
use heaven_tape::SimClock;
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The shared outcome of a successful batched fetch, cloned to every
/// coalesced waiter (the payload clone is a refcount bump). Besides the
/// payload it carries the causal/timing context each waiter stamps onto
/// its own trace: the `sched.batch` span that staged it and the
/// queue/service decomposition of its latency.
#[derive(Debug, Clone)]
struct Served {
    payload: Bytes,
    /// Shared-clock instant the staging round completed (waiters
    /// fast-forward their lanes to it).
    done_s: f64,
    /// Enqueue → staging-round start (simulated seconds).
    queue_s: f64,
    /// Staging-round start → notification (simulated seconds).
    service_s: f64,
    /// The `sched.batch` span that staged this fetch (0 = untraced).
    batch_span: u64,
}

/// One in-flight tertiary fetch; every session waiting on the same
/// super-tile holds the same `Arc<Inflight>` and reads the same outcome.
/// `done` is signalled exactly once, when the slot is filled.
#[derive(Debug, Default)]
struct Inflight {
    slot: Mutex<Option<Result<Served>>>,
    done: Condvar,
}

/// A fetch in the batcher's queue: its place on the recovery ladder plus
/// the batcher's own bookkeeping.
#[derive(Debug, Clone, Copy)]
struct Queued {
    p: PendingFetch,
    /// Shared-clock instant the first waiter enqueued this super-tile
    /// (survives requeues: queue time accumulates across the ladder).
    enqueue_s: f64,
    /// Drain passes this fetch has been seen by (each pass ≈ one batching
    /// window) — the stall watchdog's deterministic time base.
    drains: u32,
    /// Shared-clock instant of the first staging round that read this
    /// fetch (`None` before it): `heaven.st_fetch_hist_s` observes from
    /// here, so re-reads and backoffs count, as on the direct path.
    first_start_s: Option<f64>,
}

/// Arrival-ordered fetch queue plus a monotone arrival counter for the
/// batching window's quiet-period detection (requeues don't count — they
/// come from the drainer itself).
#[derive(Debug, Default)]
struct BatchQueue {
    pending: Vec<Queued>,
    arrivals: u64,
}

/// The cross-session staging coordinator (a combining lock).
///
/// `inflight` registers-or-coalesces under one critical section (a request
/// is pushed to the queue in the same section, so no request is ever both
/// unqueued and unobserved). Whichever waiting session wins `drain`
/// becomes the drainer: it waits out the batching window on the `arrived`
/// condvar (each arrival re-arms a short quiet period, so the window
/// closes early once peers stop enqueueing), then stages the merged batch
/// in one scheduled, drive-parallel sweep — repeating until the queue is
/// empty so that requeued retries/failovers are staged before the drainer
/// seat is vacated. Non-drainers park on their entry's `done` condvar.
#[derive(Debug)]
pub(crate) struct FetchBatcher {
    queue: Mutex<BatchQueue>,
    arrived: Condvar,
    inflight: Mutex<HashMap<SuperTileId, Arc<Inflight>>>,
    drain: Mutex<()>,
    pub(crate) window: Duration,
}

impl FetchBatcher {
    pub(crate) fn new(window: Duration) -> FetchBatcher {
        FetchBatcher {
            queue: Mutex::new(BatchQueue::default()),
            arrived: Condvar::new(),
            inflight: Mutex::new(HashMap::new()),
            drain: Mutex::new(()),
            window,
        }
    }

    /// Fetch a super-tile through the shared batch: returns the shared
    /// [`Served`] outcome plus whether this waiter coalesced onto an
    /// already-queued request (vs. registering it).
    fn fetch(&self, h: &Heaven, p: PendingFetch) -> Result<(Served, bool)> {
        let (entry, coalesced) = {
            let mut map = self.inflight.lock();
            match map.get(&p.req.st) {
                Some(e) => {
                    h.metrics.coalesced_fetches.inc();
                    (Arc::clone(e), true)
                }
                None => {
                    let e = Arc::new(Inflight::default());
                    map.insert(p.req.st, Arc::clone(&e));
                    let mut q = self.queue.lock();
                    q.pending.push(Queued {
                        p,
                        enqueue_s: h.clock.now_s(),
                        drains: 0,
                        first_start_s: None,
                    });
                    q.arrivals += 1;
                    self.arrived.notify_all();
                    (e, false)
                }
            }
        };
        loop {
            if let Some(outcome) = entry.slot.lock().clone() {
                return outcome.map(|served| (served, coalesced));
            }
            match self.drain.try_lock() {
                Some(_drainer) => {
                    self.wait_window();
                    // Drain until the queue is quiet: requeued retries and
                    // replica failovers are staged before the drainer seat
                    // is vacated, so their coalesced waiters are never
                    // stranded behind an empty election.
                    loop {
                        self.drain_all(h);
                        if self.queue.lock().pending.is_empty() {
                            break;
                        }
                    }
                }
                None => {
                    let slot = entry.slot.lock();
                    if slot.is_none() {
                        // Timed wait: if the drainer vacated between our
                        // slot check and this park, the timeout re-runs
                        // the drainer election above.
                        let _ = entry.done.wait_for(slot, Duration::from_millis(1));
                    }
                }
            }
        }
    }

    /// Wait out the batching window on the arrival condvar: each new
    /// arrival re-arms a short quiet period, and the wait ends at the
    /// first quiet period (or the full window, whichever comes first).
    /// Peers enqueue freely while the drainer sleeps — the queue lock is
    /// released inside `wait_for`.
    fn wait_window(&self) {
        if self.window.is_zero() {
            return;
        }
        let quiet = self.window.min(Duration::from_millis(2));
        let deadline = Instant::now() + self.window;
        let mut q = self.queue.lock();
        loop {
            let seen = q.arrivals;
            let now = Instant::now();
            if now >= deadline {
                return;
            }
            let (g, _) = self.arrived.wait_for(q, quiet.min(deadline - now));
            q = g;
            if q.arrivals == seen {
                return; // a full quiet period passed with no arrivals
            }
        }
    }

    /// Stage every queued request in one scheduled sweep and resolve the
    /// waiters: the batched driver of the recovery step. A re-read
    /// requeues (with its coalesced waiters intact — the inflight entry
    /// survives); a typed error resolves the affected entry (nobody is
    /// left parked on a fetch that will never complete).
    fn drain_all(&self, h: &Heaven) {
        let mut reqs: Vec<Queued> = std::mem::take(&mut self.queue.lock().pending);
        if reqs.is_empty() {
            return;
        }
        let mut store = h.store.lock();
        // Stall watchdog: each drain pass is one batching window; a fetch
        // still pending past `stall_window_mult` passes (it keeps
        // requeueing through the retry/failover ladder) is flagged once,
        // on the first pass past them. The count of passes is
        // interleaving-independent, so seeded chaos runs flag identical
        // stalls.
        let stall_at = match h.config.stall_window_mult {
            m if m > 0.0 => (m.ceil() as u32).saturating_add(1),
            _ => u32::MAX,
        };
        for q in reqs.iter_mut() {
            q.drains += 1;
            if q.drains == stall_at {
                h.metrics.stalls.inc();
                let now_s = store.clock().now_s();
                h.bus.event(
                    "sched.stall",
                    now_s,
                    &[
                        ("st", q.p.req.st.into()),
                        ("medium", q.p.req.addr.medium.into()),
                        ("drains", (q.drains as u64).into()),
                        ("waited_s", (now_s - q.enqueue_s).max(0.0).into()),
                        ("replica", (q.p.on_replica as u64).into()),
                    ],
                );
            }
        }
        // Retried requests owe their backoff before re-reading; the whole
        // batch backs off in parallel, so one charge (the largest) covers
        // the drain (none when every request is on attempt 0).
        let max_attempt = reqs.iter().map(|q| q.p.attempt).max().unwrap_or(0);
        store
            .clock()
            .advance_s(h.config.retry.backoff_s(max_attempt));
        let by_st: HashMap<SuperTileId, Queued> = reqs.iter().map(|q| (q.p.req.st, *q)).collect();
        let plain: Vec<FetchRequest> = reqs.iter().map(|q| q.p.req).collect();
        let mounted = store.library().mounted_media();
        let order = if h.config.scheduling {
            schedule(&plain, &mounted)
        } else {
            plain
        };
        h.metrics.batches.inc();
        h.metrics.batched_fetches.add(order.len() as u64);
        let drives = store.library().drive_count();
        let rounds = plan_drive_rounds(&order, drives);
        // The batch is a span (not an event) so waiter fetch spans can
        // link to it: `sched.batch` is the shared cause every coalesced
        // session's latency traces back to.
        let batch_span = h.bus.span_start(
            "sched.batch",
            store.clock().now_s(),
            &[
                ("fetches", order.len().into()),
                ("rounds", rounds.len().into()),
                ("max_attempt", (max_attempt as u64).into()),
            ],
        );
        for round in rounds {
            // One drive per group: groups transfer in parallel, errors
            // stay per request.
            let t0 = store.clock().now_s();
            let addrs: Vec<Vec<BlockAddress>> = round
                .iter()
                .map(|g| g.iter().map(|r| r.addr).collect())
                .collect();
            let results = round.iter().flatten().zip(store.read_parallel(&addrs));
            let done_s = store.clock().now_s();
            for (&r, read) in results {
                let q = by_st[&r.st];
                match q.p.step(read, done_s, &h.config.retry, &h.recovery, &h.bus) {
                    Ok(Step::Staged(raw)) => {
                        let refetch_s = store.estimate_read_s(r.addr);
                        let served = h.admit(&q.p, raw, refetch_s).map(|payload| {
                            // Decompose the fetch's latency: queue =
                            // enqueue → this round's staging start
                            // (backoffs and earlier passes included),
                            // service = staging start → notify.
                            let queue_s = (t0 - q.enqueue_s).max(0.0);
                            let service_s = (done_s - t0).max(0.0);
                            h.metrics.queue_wait.observe(queue_s);
                            h.metrics.service.observe(service_s);
                            h.metrics
                                .st_fetch_hist
                                .observe(done_s - q.first_start_s.unwrap_or(t0));
                            Served {
                                payload,
                                done_s,
                                queue_s,
                                service_s,
                                batch_span,
                            }
                        });
                        self.resolve(r.st, served);
                    }
                    Ok(Step::Reread(p)) => {
                        let first_start_s = q.first_start_s.or(Some(t0));
                        self.requeue(
                            h,
                            Queued {
                                p,
                                first_start_s,
                                ..q
                            },
                        )
                    }
                    Err(e) => self.resolve(r.st, Err(e)),
                }
            }
        }
        h.bus.span_end(batch_span, store.clock().now_s());
    }

    /// Put a request back in the queue for the next drain iteration. The
    /// inflight entry stays, so every coalesced waiter keeps waiting on
    /// the same slot — nobody is dropped or double-notified.
    fn requeue(&self, h: &Heaven, q: Queued) {
        h.metrics.requeued_fetches.inc();
        h.bus.event(
            "sched.requeue",
            h.clock.now_s(),
            &[
                ("st", q.p.req.st.into()),
                ("attempt", (q.p.attempt as u64).into()),
                ("replica", (q.p.on_replica as u64).into()),
            ],
        );
        // No arrivals bump: requeues come from the drainer itself and must
        // not re-arm the batching window's quiet period.
        self.queue.lock().pending.push(q);
    }

    fn resolve(&self, st: SuperTileId, outcome: Result<Served>) {
        let entry = self.inflight.lock().remove(&st);
        if let Some(e) = entry {
            let mut slot = e.slot.lock();
            debug_assert!(slot.is_none(), "double notify on super-tile {st}");
            *slot = Some(outcome);
            e.done.notify_all();
        }
    }
}

/// A first-attempt fetch of `st` on its primary copy, with what the
/// catalog knows for recovery and decoding.
pub(crate) fn locate(h: &Heaven, st: SuperTileId) -> Result<PendingFetch> {
    let cat = h.catalog.read();
    Ok(PendingFetch {
        req: FetchRequest {
            st,
            addr: cat.address(st)?,
        },
        attempt: 0,
        on_replica: false,
        replica: cat.replica(st),
        checksum: cat.checksum(st),
        total_len: cat.meta(st)?.total_len,
    })
}

impl Heaven {
    /// Count a super-tile read from tape, undo its wire codec and admit
    /// it to the disk cache — the last step of both staging paths.
    fn admit(&self, p: &PendingFetch, raw: Bytes, refetch_s: f64) -> Result<Bytes> {
        let len = p.req.addr.len;
        self.metrics.st_tape_fetches.inc();
        self.metrics.st_tape_bytes.add(len);
        self.metrics.st_fetch_bytes_hist.observe(len as f64);
        let payload = self.maybe_decompress(raw, p.total_len)?;
        self.st_cache.put(p.req.st, payload.clone(), refetch_s);
        Ok(payload)
    }

    /// Open a shared query session with its own simulated-time lane
    /// (forked at the shared clock's current instant) and a fresh
    /// session id for trace attribution. Dropping the session re-joins
    /// the shared timeline.
    pub fn session(&self) -> Session<'_> {
        Session {
            h: self,
            id: self
                .next_session
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            lane: self.clock.fork(),
            exclusive: false,
        }
    }

    /// The exclusive session the single-owner entry points run on: its
    /// lane *is* the shared clock and it stages directly. Sound only
    /// while no shared session runs — callers hold `&mut Heaven`, or
    /// (metadata lookups) never stage.
    pub(crate) fn exclusive_session(&self) -> Session<'_> {
        Session {
            h: self,
            id: 0,
            lane: self.clock.clone(),
            exclusive: true,
        }
    }
}

/// A query session: a handle on the system plus a simulated-time lane
/// (see the module docs for exclusive vs shared sessions). Disk-cache
/// I/O is charged to the lane; tape staging charges the shared clock and
/// the lane fast-forwards to the staging completion.
#[derive(Debug)]
pub struct Session<'h> {
    h: &'h Heaven,
    id: u64,
    lane: SimClock,
    exclusive: bool,
}

impl Session<'_> {
    /// This session's current simulated time.
    pub fn now_s(&self) -> f64 {
        self.lane.now_s()
    }

    /// Materialize `region` of `oid` across the hierarchy.
    ///
    /// Opens a root `query` span stamped with this session's id, and
    /// observes `heaven.query_latency_s` with the span as the histogram
    /// exemplar — so a slow Prometheus bucket names the concrete trace
    /// to chase. The root span is a head-sampling unit like the
    /// facade's query bracket: a sampled-out query's records are held
    /// back on this thread and kept only if it was slow.
    pub fn fetch_region(&self, oid: ObjectId, region: &Minterval) -> Result<MDArray> {
        let bus = &self.h.bus;
        bus.set_session(self.id);
        let start_s = self.lane.now_s();
        let span = bus.span_start("query", start_s, &[("oid", oid.into())]);
        let res = self.fetch_region_inner(oid, region);
        let end_s = self.lane.now_s();
        bus.span_end(span, end_s);
        self.h
            .metrics
            .query_latency
            .observe_with_exemplar((end_s - start_s).max(0.0), span, span);
        res
    }

    /// The retrieval body every entry point runs (paper §3.5.2).
    pub(crate) fn fetch_region_inner(&self, oid: ObjectId, region: &Minterval) -> Result<MDArray> {
        let h = self.h;
        h.metrics.region_fetches.inc();
        let meta = h.adb.lock().object(oid)?.clone();
        let target = meta.domain.intersection(region).ok_or_else(|| {
            HeavenError::Config(format!(
                "region {region} outside object domain {}",
                meta.domain
            ))
        })?;
        let mut out = MDArray::zeros(target.clone(), meta.cell_type);
        // Classify needed tiles: memory, DBMS disk, or an exported
        // super-tile.
        let mut pending: BTreeMap<SuperTileId, Vec<TileId>> = BTreeMap::new();
        for tid in meta.tiles_intersecting(&target) {
            if let Some(t) = h.tile_cache.get(tid) {
                h.metrics.bytes_copied.add(out.patch(&t.data)?);
                continue;
            }
            match self.disk_tile(tid)? {
                Some(t) => {
                    h.metrics.bytes_copied.add(out.patch(&t.data)?);
                    h.tile_cache.put(t);
                }
                None => {
                    let st = h.catalog.read().supertile_of(tid)?;
                    pending.entry(st).or_default().push(tid);
                }
            }
        }
        // Cached super-tiles first, then the tape misses in scheduled
        // order.
        let mut ordered: Vec<SuperTileId> = Vec::new();
        let mut to_fetch = Vec::new();
        {
            let cat = h.catalog.read();
            for &st in pending.keys() {
                if h.st_cache.contains(st) {
                    ordered.push(st);
                } else {
                    to_fetch.push(FetchRequest {
                        st,
                        addr: cat.address(st)?,
                    });
                }
            }
        }
        let (mounted, drives, random_access) = if to_fetch.is_empty() {
            (Vec::new(), 1, false) // nothing goes to tape: leave the store alone
        } else {
            let store = h.store.lock();
            let lib = store.library();
            // Partial reads need the uncompressed on-media layout; they
            // also bypass the whole-payload checksum, so under fault
            // injection we fall back to full (verifiable) fetches.
            let random_access =
                !lib.profile().linear_seek && !h.config.compress && !store.faults_enabled();
            (lib.mounted_media(), lib.drive_count(), random_access)
        };
        let cached = ordered.len();
        let (order, policy) = if h.config.scheduling {
            (schedule(&to_fetch, &mounted), "scheduled")
        } else {
            (to_fetch, "request-order")
        };
        self.note_schedule(&order, &mounted, drives, cached, policy);
        ordered.extend(order.iter().map(|r| r.st));
        for st in ordered {
            let meta_st = h.catalog.read().meta(st)?.clone();
            let needed = &pending[&st];
            // On random-access media (MO jukeboxes) a sparse request reads
            // only the member tiles, not the whole super-tile — the medium
            // has no locate penalty to amortize (paper §2.2).
            let needed_bytes: u64 = needed
                .iter()
                .filter_map(|t| meta_st.member(*t))
                .map(|m| m.len)
                .sum();
            if random_access && !h.st_cache.contains(st) && needed_bytes * 2 < meta_st.total_len {
                self.read_sparse(&meta_st, needed, needed_bytes, &mut out)?;
                continue;
            }
            let payload = self.supertile_payload(st)?;
            for &tid in needed {
                let t = decode_member(&meta_st, &payload, tid)?;
                h.metrics.bytes_copied.add(out.patch(&t.data)?);
                h.tile_cache.put(t);
            }
        }
        self.prefetch(oid, &pending)?;
        Ok(out)
    }

    /// The tile from DBMS disk, or `None` when it lives in an exported
    /// super-tile.
    fn disk_tile(&self, tid: TileId) -> Result<Option<Tile>> {
        let mut adb = self.h.adb.lock();
        Ok(match adb.tile_location(tid)? {
            TileLocation::Disk => Some(adb.read_tile(tid)?),
            TileLocation::Exported => None,
        })
    }

    /// Emit the scheduler-decision event: how many super-tiles go to tape,
    /// how many are already staged, and the media-exchange estimate for
    /// the chosen order.
    fn note_schedule(
        &self,
        order: &[FetchRequest],
        mounted: &[heaven_tape::MediumId],
        drives: usize,
        cached: usize,
        policy: &'static str,
    ) {
        let bus = &self.h.bus;
        if !bus.is_enabled() || (order.is_empty() && cached == 0) {
            return;
        }
        bus.event(
            "heaven.schedule",
            self.lane.now_s(),
            &[
                ("tape_fetches", order.len().into()),
                ("cached", cached.into()),
                ("policy", policy.into()),
                (
                    "exchanges_est",
                    count_exchanges(order, drives, mounted).into(),
                ),
            ],
        );
    }

    /// Read only the `needed` member tiles of a super-tile (random-access
    /// media) and patch them into `out`.
    fn read_sparse(
        &self,
        meta_st: &SuperTileMeta,
        needed: &[TileId],
        needed_bytes: u64,
        out: &mut MDArray,
    ) -> Result<()> {
        let h = self.h;
        let addr = h.catalog.read().address(meta_st.id)?;
        let mut store = h.store.lock();
        h.clock.advance_to_s(self.lane.now_s());
        let t0 = h.clock.now_s();
        let span = h.bus.span_start(
            "heaven.st_fetch",
            t0,
            &[
                ("st", meta_st.id.into()),
                ("bytes", needed_bytes.into()),
                ("medium", addr.medium.into()),
                ("sparse", 1u64.into()),
            ],
        );
        for &tid in needed {
            let m = meta_st.member(tid).ok_or(HeavenError::TileUnlocated(tid))?;
            let bytes = store.read_range(addr, m.offset, m.len)?;
            h.metrics.st_tape_bytes.add(m.len);
            let (t, _) = Tile::decode_shared(&bytes, 0).map_err(HeavenError::Array)?;
            h.metrics.bytes_copied.add(out.patch(&t.data)?);
            h.tile_cache.put(t);
        }
        drop(store);
        h.metrics.st_tape_fetches.inc();
        h.metrics.st_fetch_bytes_hist.observe(needed_bytes as f64);
        let t1 = h.clock.now_s();
        h.metrics.st_fetch_hist.observe(t1 - t0);
        h.bus.span_end(span, t1);
        self.lane.advance_to_s(t1);
        Ok(())
    }

    /// Stage a super-tile payload: a striped-cache hit (charged to this
    /// session's lane), else a tertiary fetch — batched across sessions
    /// for a shared session, staged directly otherwise. Either path runs
    /// the full recovery ladder (retry, failover, dual-copy) under
    /// faults. The returned handle aliases the cache entry.
    ///
    /// Tertiary fetches run inside a `heaven.st_fetch` span. On the
    /// batched path the span **links** to the shared `sched.batch` span
    /// that staged the payload (the cross-session causal edge); a shared
    /// session's fetch emits a `sched.served` event carrying the
    /// queue/service decomposition, so `heaven-prof critical-path` can
    /// attribute this session's wait to the fetch that served it.
    pub(crate) fn supertile_payload(&self, st: SuperTileId) -> Result<Bytes> {
        if let Some(p) = self.h.st_cache.get_clocked(st, &self.lane) {
            return Ok(p);
        }
        let p = locate(self.h, st)?;
        let batched = !self.exclusive && self.h.config.cross_session_batching;
        let span = self.h.bus.span_start(
            "heaven.st_fetch",
            self.lane.now_s(),
            &[
                ("st", st.into()),
                ("bytes", p.req.addr.len.into()),
                ("medium", p.req.addr.medium.into()),
                ("batched", (batched as u64).into()),
            ],
        );
        let res = if batched {
            self.batched_payload(p, span)
        } else {
            self.stage(&p).map(|(payload, start_s)| {
                if !self.exclusive {
                    // Direct staging has no queue: it is all service.
                    let done_s = self.lane.now_s();
                    self.h.metrics.queue_wait.observe(0.0);
                    self.h.metrics.service.observe(done_s - start_s);
                    self.note_served(st, 0.0, done_s - start_s, 0, false, done_s);
                }
                payload
            })
        };
        self.h.bus.span_end(span, self.lane.now_s());
        res
    }

    /// Direct staging — the one path besides the [`FetchBatcher`] that
    /// moves a super-tile from tape into the disk cache: read it through
    /// the recovery ladder, undo its wire codec, admit it. The tape is a
    /// serial server: it starts no earlier than this session's lane, and
    /// the lane re-joins the shared clock once the payload is cached.
    /// Returns the payload and the shared-clock instant staging started.
    fn stage(&self, p: &PendingFetch) -> Result<(Bytes, f64)> {
        let h = self.h;
        let mut store = h.store.lock();
        h.clock.advance_to_s(self.lane.now_s());
        let t0 = h.clock.now_s();
        let raw = p.read_serial(&mut store, &h.config.retry, &h.recovery, &h.bus)?;
        let payload = h.admit(p, raw, store.estimate_read_s(p.req.addr))?;
        let t1 = h.clock.now_s();
        h.metrics.st_fetch_hist.observe(t1 - t0);
        self.lane.advance_to_s(t1);
        Ok((payload, t0))
    }

    /// The cross-session batched tertiary path (see `supertile_payload`).
    fn batched_payload(&self, p: PendingFetch, span: u64) -> Result<Bytes> {
        let st = p.req.st;
        let (served, coalesced) = self.h.batcher.fetch(self.h, p)?;
        self.h.bus.link(
            "sched.link",
            served.done_s,
            span,
            served.batch_span,
            &[("st", st.into()), ("coalesced", (coalesced as u64).into())],
        );
        self.note_served(
            st,
            served.queue_s,
            served.service_s,
            served.batch_span,
            coalesced,
            served.done_s,
        );
        self.lane.advance_to_s(served.done_s);
        Ok(served.payload)
    }

    /// Emit the `sched.served` event of one tertiary fetch of a shared
    /// session (`batch` 0: staged directly).
    fn note_served(
        &self,
        st: SuperTileId,
        queue_s: f64,
        service_s: f64,
        batch: u64,
        coalesced: bool,
        at_s: f64,
    ) {
        self.h.bus.event(
            "sched.served",
            at_s,
            &[
                ("st", st.into()),
                ("queue_s", queue_s.into()),
                ("service_s", service_s.into()),
                ("batch", batch.into()),
                ("coalesced", (coalesced as u64).into()),
            ],
        );
    }

    /// Prefetch successor super-tiles in cluster order (paper §3.6).
    /// Best-effort direct staging: a super-tile that can't be staged now
    /// simply stays on tape for the demand path to recover.
    fn prefetch(&self, oid: ObjectId, touched: &BTreeMap<SuperTileId, Vec<TileId>>) -> Result<()> {
        let h = self.h;
        let PrefetchPolicy::NextInOrder(n) = h.config.prefetch else {
            return Ok(());
        };
        let Some(&max_touched) = touched.keys().next_back() else {
            return Ok(());
        };
        let order = h.catalog.read().object_supertiles(oid);
        let Some(pos) = order.iter().position(|&s| s == max_touched) else {
            return Ok(());
        };
        for &st in order.iter().skip(pos + 1).take(n) {
            if h.st_cache.contains(st) {
                continue;
            }
            let p = locate(h, st)?;
            let bytes = p.req.addr.len;
            h.bus.event(
                "heaven.prefetch.issue",
                self.lane.now_s(),
                &[("st", st.into()), ("bytes", bytes.into())],
            );
            let Ok((_, start_s)) = self.stage(&p) else {
                continue;
            };
            let done_s = self.lane.now_s();
            let dt = done_s - start_s;
            h.metrics.prefetches.inc();
            h.metrics.prefetch_s.add(dt);
            h.metrics.prefetch_bytes.add(bytes);
            h.bus.event(
                "heaven.prefetch.complete",
                done_s,
                &[
                    ("st", st.into()),
                    ("bytes", bytes.into()),
                    ("dur_s", dt.into()),
                ],
            );
        }
        Ok(())
    }

    /// Stage every super-tile `requests` need in one scheduled sweep
    /// (inter-query scheduling, paper §3.5.3).
    pub(crate) fn stage_batch(&self, requests: &[(ObjectId, Minterval)]) -> Result<()> {
        let h = self.h;
        let mut needed: Vec<FetchRequest> = Vec::new();
        {
            let adb = h.adb.lock();
            let cat = h.catalog.read();
            for (oid, region) in requests {
                let meta = adb.object(*oid)?;
                let Some(target) = meta.domain.intersection(region) else {
                    continue;
                };
                for tid in meta.tiles_intersecting(&target) {
                    if adb.tile_location(tid)? == TileLocation::Exported {
                        let st = cat.supertile_of(tid)?;
                        if !h.st_cache.contains(st) {
                            needed.push(FetchRequest {
                                st,
                                addr: cat.address(st)?,
                            });
                        }
                    }
                }
            }
        }
        let (mounted, drives) = {
            let store = h.store.lock();
            (
                store.library().mounted_media(),
                store.library().drive_count(),
            )
        };
        let order = if h.config.scheduling {
            schedule(&needed, &mounted)
        } else {
            let mut seen = std::collections::HashSet::new();
            needed.into_iter().filter(|r| seen.insert(r.st)).collect()
        };
        self.note_schedule(&order, &mounted, drives, 0, "batch");
        for r in order {
            if !h.st_cache.contains(r.st) {
                self.stage(&locate(h, r.st)?)?;
            }
        }
        Ok(())
    }
}

impl Drop for Session<'_> {
    fn drop(&mut self) {
        // Re-join the shared timeline: the epoch ends when the slowest
        // overlapped lane ends (a no-op for the exclusive session).
        self.h.clock.advance_to_s(self.lane.now_s());
    }
}

/// rasql runs on a session like on [`Heaven`]: the same retrieval body,
/// the same precomputed-result catalog.
impl TileProvider for Session<'_> {
    fn object_meta(&self, oid: ObjectId) -> heaven_arraydb::Result<ObjectMeta> {
        Ok(self.h.adb.lock().object(oid)?.clone())
    }

    fn collection_objects(&self, name: &str) -> heaven_arraydb::Result<Vec<ObjectId>> {
        Ok(self.h.adb.lock().collection(name)?.objects.clone())
    }

    fn fetch_region(
        &mut self,
        oid: ObjectId,
        region: &Minterval,
    ) -> heaven_arraydb::Result<MDArray> {
        Session::fetch_region(self, oid, region).map_err(Into::into)
    }

    fn precomputed(&mut self, oid: ObjectId, op: Condenser, region: &Minterval) -> Option<f64> {
        let tiles = self.h.adb.lock().object(oid).ok()?.tiles.clone();
        self.h.precomp.write().lookup(oid, op, region, &tiles)
    }

    fn note_computed(&mut self, oid: ObjectId, op: Condenser, region: &Minterval, value: f64) {
        self.h
            .precomp
            .write()
            .record_exact(oid, op, region.clone(), value);
    }
}
