//! The recovery ladder for tertiary reads: one step, two drivers.
//!
//! The perfect-world fetch path is one `store.read(addr)`. Under fault
//! injection a read can die three ways: the drive fails mid-transfer
//! (transient — the next mount fails over to a healthy drive), a media
//! segment is unreadable (transient — the drive may recover the pass, or
//! the replica copy has the bytes), or the payload arrives silently
//! corrupted (caught by the wire checksum, never transient — tape
//! corruption is persistent, so the read falls straight back to the
//! replica). The policy: per copy, up to `RetryPolicy::max_retries`
//! retries with exponential backoff charged to the **simulated** clock;
//! then failover to the second archive copy; then a typed
//! [`HeavenError::MediaLost`] — a query returns correct bytes or a loud
//! error, never quiet garbage.
//!
//! [`PendingFetch::step`] is that policy, decided once per read of one
//! copy; it bumps the `hsm.*` counters and emits the `hsm.*` events. Two
//! drivers apply it, each with its own I/O and clock charges:
//!
//! * **direct staging** ([`PendingFetch::read_serial`], called by
//!   `Session::stage`) reads serially and waits out the backoff before
//!   each re-read;
//! * **batched staging** (`FetchBatcher::drain_all`) steps every result
//!   of a drive-parallel round and requeues re-reads, charging one
//!   backoff (the largest owed) per drain pass.

use crate::config::RetryPolicy;
use crate::error::{HeavenError, Result};
use crate::scheduler::FetchRequest;
use crate::supertile::checksum64;
use bytes::Bytes;
use heaven_hsm::{BlockAddress, DirectStore, HsmError};
use heaven_obs::{Counter, MetricsRegistry, TraceBus};
use heaven_tape::TapeError;

/// Handles for the recovery counters (`hsm.*` namespace: this is the
/// storage-management layer's recovery machinery).
#[derive(Debug, Clone)]
pub(crate) struct RecoveryMetrics {
    /// Read attempts repeated after a transient failure.
    pub retries: Counter,
    /// Mount-level failovers forced by drive failures.
    pub failovers: Counter,
    /// Payloads rejected by wire-checksum verification.
    pub checksum_failures: Counter,
    /// Super-tiles lost with every copy exhausted.
    pub media_lost: Counter,
}

impl RecoveryMetrics {
    pub fn new(registry: &MetricsRegistry) -> RecoveryMetrics {
        RecoveryMetrics {
            retries: registry.counter("hsm.retries"),
            failovers: registry.counter("hsm.failovers"),
            checksum_failures: registry.counter("hsm.checksum_failures"),
            media_lost: registry.counter("hsm.media_lost"),
        }
    }
}

/// A tertiary fetch and its place on the ladder: which attempt this is,
/// whether it already failed over to the second copy, and the catalog's
/// replica/checksum for that failover.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingFetch {
    /// The copy read next.
    pub req: FetchRequest,
    /// Re-reads of `req` so far (0 on a fresh copy).
    pub attempt: u32,
    pub on_replica: bool,
    pub replica: Option<BlockAddress>,
    pub checksum: Option<u64>,
    /// Catalogued uncompressed payload length (undoes the wire codec).
    pub total_len: u64,
}

/// What the ladder does after one read of one copy.
#[derive(Debug)]
pub(crate) enum Step {
    /// The payload passed its checksum: stage it.
    Staged(Bytes),
    /// Read again: the same copy after a transient error, once
    /// `RetryPolicy::backoff_s(attempt)` has passed; or the replica, from
    /// attempt 0 (no backoff).
    Reread(PendingFetch),
}

impl PendingFetch {
    /// Decide what follows `read`, the outcome of reading `self.req` at
    /// simulated time `now_s`: stage a verified payload, re-read, or fail
    /// with a typed error — [`HeavenError::MediaLost`] once every copy is
    /// exhausted or corrupt, the structural error itself otherwise.
    pub(crate) fn step(
        self,
        read: std::result::Result<Bytes, HsmError>,
        now_s: f64,
        policy: &RetryPolicy,
        m: &RecoveryMetrics,
        bus: &TraceBus,
    ) -> Result<Step> {
        let (st, medium) = (self.req.st, self.req.addr.medium);
        match read {
            Ok(raw) if self.checksum.is_none_or(|sum| checksum64(&raw) == sum) => {
                return Ok(Step::Staged(raw));
            }
            Ok(_) => {
                // Persistent corruption on this copy: no same-copy retry,
                // straight to the replica.
                m.checksum_failures.inc();
                bus.event(
                    "hsm.checksum_failure",
                    now_s,
                    &[
                        ("st", st.into()),
                        ("medium", medium.into()),
                        ("replica", (self.on_replica as u64).into()),
                    ],
                );
            }
            Err(HsmError::Tape(te)) if te.is_transient() => {
                if matches!(te, TapeError::DriveFailed { .. }) {
                    // The next mount picks a healthy drive.
                    m.failovers.inc();
                }
                if self.attempt < policy.max_retries {
                    m.retries.inc();
                    let attempt = self.attempt + 1;
                    bus.event(
                        "hsm.retry",
                        now_s,
                        &[
                            ("st", st.into()),
                            ("medium", medium.into()),
                            ("attempt", (attempt as u64).into()),
                            ("backoff_s", policy.backoff_s(attempt).into()),
                        ],
                    );
                    return Ok(Step::Reread(PendingFetch { attempt, ..self }));
                }
            }
            Err(e) => return Err(e.into()),
        }
        // This copy is spent: fail over to the second one, if any is left.
        match self.replica {
            Some(addr) if !self.on_replica => Ok(Step::Reread(PendingFetch {
                req: FetchRequest { st, addr },
                attempt: 0,
                on_replica: true,
                ..self
            })),
            _ => {
                m.media_lost.inc();
                bus.event("hsm.media_lost", now_s, &[("st", st.into())]);
                Err(HeavenError::MediaLost { st })
            }
        }
    }

    /// The direct-staging driver: read serially from `store`, step, and
    /// charge the owed backoff to the store's simulated clock before each
    /// re-read, until the payload is staged or the ladder fails.
    pub(crate) fn read_serial(
        mut self,
        store: &mut DirectStore,
        policy: &RetryPolicy,
        m: &RecoveryMetrics,
        bus: &TraceBus,
    ) -> Result<Bytes> {
        let clock = store.clock();
        loop {
            let read = store.read(self.req.addr);
            match self.step(read, clock.now_s(), policy, m, bus)? {
                Step::Staged(raw) => return Ok(raw),
                Step::Reread(next) => self = next,
            }
            clock.advance_s(policy.backoff_s(self.attempt));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heaven_tape::{DeviceProfile, FaultConfig, SimClock, TapeLibrary, WritePayload};

    /// A store holding `payload` on a primary and a replica medium.
    fn store_with(payload: &[u8]) -> (DirectStore, BlockAddress, BlockAddress) {
        let lib = TapeLibrary::new(DeviceProfile::ibm3590(), 2, SimClock::new());
        let mut s = DirectStore::new(lib);
        let addr = s.append(WritePayload::real(payload.to_vec())).unwrap();
        let replica = s
            .append_replica(WritePayload::real(payload.to_vec()), addr.medium)
            .unwrap();
        (s, addr, replica)
    }

    fn fetch(addr: BlockAddress, replica: Option<BlockAddress>, sum: Option<u64>) -> PendingFetch {
        PendingFetch {
            req: FetchRequest { st: 7, addr },
            attempt: 0,
            on_replica: false,
            replica,
            checksum: sum,
            total_len: addr.len,
        }
    }

    fn metrics() -> RecoveryMetrics {
        RecoveryMetrics::new(&MetricsRegistry::new())
    }

    #[test]
    fn clean_read_passes_through() {
        let payload = vec![9u8; 512];
        let (mut s, addr, _) = store_with(&payload);
        let m = metrics();
        let p = fetch(addr, None, Some(checksum64(&payload)));
        let got = p
            .read_serial(&mut s, &RetryPolicy::default(), &m, &TraceBus::noop())
            .unwrap();
        assert_eq!(got, payload);
        assert_eq!(m.retries.get(), 0);
    }

    #[test]
    fn transient_errors_are_retried_with_backoff() {
        let payload = vec![3u8; 256];
        let (_, addr, replica) = store_with(&payload);
        // A transient error with attempts left re-reads the same copy and
        // owes the first backoff step.
        let (m, policy) = (metrics(), RetryPolicy::default());
        let p = fetch(addr, Some(replica), Some(checksum64(&payload)));
        let (medium, offset) = (addr.medium, addr.offset);
        let transient = Err(HsmError::Tape(TapeError::MediaReadError { medium, offset }));
        let bus = TraceBus::noop();
        let Ok(Step::Reread(next)) = p.step(transient, 0.0, &policy, &m, &bus) else {
            panic!("a transient error must re-read");
        };
        assert_eq!((next.req, next.attempt), (p.req, 1));
        // Enable a high media-error rate AFTER the write; the keyed hash
        // re-rolls per attempt, so some retry eventually succeeds (the
        // replica guards against exhausting one copy). The same faults
        // with zero backoff take the same reads, so the difference in
        // simulated time is the backoff alone.
        let run = |backoff_base_s| {
            let (mut s, _, _) = store_with(&payload);
            s.library_mut().set_fault_plan(Some(FaultConfig {
                media_read_error_per_read: 0.6,
                ..FaultConfig::quiet(12)
            }));
            let (m, t0) = (metrics(), s.clock().now_s());
            let policy = RetryPolicy {
                backoff_base_s,
                ..policy
            };
            let got = p.read_serial(&mut s, &policy, &m, &TraceBus::noop());
            assert_eq!(got.unwrap(), payload);
            (m.retries.get(), s.clock().now_s() - t0)
        };
        let ((retries, charged), (_, free)) = (run(policy.backoff_base_s), run(0.0));
        assert!(retries > 0, "the fault plan must force a retry");
        assert!(
            charged - free >= retries as f64 * policy.backoff_base_s - 1e-9,
            "backoff must be charged to the simulated clock"
        );
    }

    #[test]
    fn checksum_mismatch_fails_over_to_replica() {
        let payload = vec![0x5Au8; 1024];
        let (mut s, addr, replica) = store_with(&payload);
        // Corruption rolls are keyed per (medium, offset): rate 1.0 flips
        // a bit in the reads of both copies, and the checksum catches both.
        s.library_mut().set_fault_plan(Some(FaultConfig {
            corrupt_per_read: 1.0,
            ..FaultConfig::quiet(1)
        }));
        let (m, policy) = (metrics(), RetryPolicy::default());
        let p = fetch(addr, Some(replica), Some(checksum64(&payload)));
        let err = p
            .read_serial(&mut s, &policy, &m, &TraceBus::noop())
            .unwrap_err();
        assert!(matches!(err, HeavenError::MediaLost { st: 7 }));
        assert_eq!(m.checksum_failures.get(), 2, "both copies rejected");
        assert_eq!((m.retries.get(), m.media_lost.get()), (0, 1));
        // Without the corruption, the replica path works.
        s.library_mut().set_fault_plan(None);
        assert_eq!(
            p.read_serial(&mut s, &policy, &m, &TraceBus::noop())
                .unwrap(),
            payload
        );
    }

    #[test]
    fn structural_errors_are_not_retried() {
        let (mut s, _, replica) = store_with(&[1u8; 10]);
        let m = metrics();
        let bogus = BlockAddress {
            medium: 99,
            offset: 0,
            len: 10,
        };
        let p = fetch(bogus, Some(replica), None);
        let err = p.read_serial(&mut s, &RetryPolicy::default(), &m, &TraceBus::noop());
        assert!(matches!(
            err,
            Err(HeavenError::Hsm(HsmError::Tape(TapeError::NoSuchMedium(
                99
            ))))
        ));
        assert_eq!((m.retries.get(), m.media_lost.get()), (0, 0));
    }

    #[test]
    fn drive_failure_counts_failover_and_recovers() {
        let payload = vec![1u8; 128];
        let (mut s, addr, _) = store_with(&payload);
        s.library_mut().set_fault_plan(Some(FaultConfig {
            drive_failure_per_read: 0.7,
            drive_repair_s: 60.0,
            ..FaultConfig::quiet(5)
        }));
        let m = metrics();
        let policy = RetryPolicy {
            max_retries: 10,
            ..RetryPolicy::default()
        };
        let p = fetch(addr, None, Some(checksum64(&payload)));
        assert_eq!(
            p.read_serial(&mut s, &policy, &m, &TraceBus::noop())
                .unwrap(),
            payload
        );
        assert_eq!(m.failovers.get() > 0, m.retries.get() > 0);
    }
}
