//! The hierarchical storage manager: file-granularity staging over tape.
//!
//! This models the classical HSM coupling the paper starts from (§2.3,
//! §2.4): the DBMS (or the scientist) sees *files*; a file is archived to
//! tape, and **any** read — even of a few bytes — forces the *whole file*
//! to be staged back to the disk cache first. This file granularity is
//! exactly the deficiency HEAVEN's super-tiles remove (§1.1: users need
//! 1–10 % of the requested data), and the baseline of experiments E4/E5.

use crate::catalog::{FileCatalog, FileEntry};
use crate::disk::{DiskStats, StagingDisk};
use crate::error::{HsmError, Result};
use crate::policy::WatermarkPolicy;
use bytes::Bytes;
use heaven_obs::{Counter, Field, Histogram, MetricsRegistry, TraceBus};
use heaven_tape::{key64, FaultKind, MediumId, SimClock, TapeLibrary, TapeStats, WritePayload};

/// A hierarchical storage management system: staging disk + tape library +
/// file catalog + purge policy.
#[derive(Debug)]
pub struct HsmSystem {
    disk: StagingDisk,
    library: TapeLibrary,
    catalog: FileCatalog,
    policy: WatermarkPolicy,
    /// Medium currently being filled by archive writes.
    fill_medium: Option<MediumId>,
    /// Count of whole-file stage operations (tape → disk).
    stage_ops: u64,
    bus: TraceBus,
    /// Duration distributions for whole-file operations (simulated s).
    stage_hist: Histogram,
    archive_hist: Histogram,
    /// Injected staging-disk-full watermark storms weathered.
    storms: Counter,
}

impl HsmSystem {
    /// Assemble an HSM from its parts.
    pub fn new(disk: StagingDisk, library: TapeLibrary, policy: WatermarkPolicy) -> HsmSystem {
        let private = MetricsRegistry::new();
        HsmSystem {
            disk,
            library,
            catalog: FileCatalog::new(),
            policy,
            fill_medium: None,
            stage_ops: 0,
            bus: TraceBus::noop(),
            stage_hist: private.histogram("hsm.stage_hist_s"),
            archive_hist: private.histogram("hsm.archive_hist_s"),
            storms: private.counter("hsm.watermark_storms"),
        }
    }

    /// Attach the HSM (and its tape library) to a shared metrics registry
    /// and trace bus. Observations accumulated so far carry over.
    pub fn attach_obs(&mut self, registry: &MetricsRegistry, bus: TraceBus) {
        self.library.attach_obs(registry, bus.clone());
        self.bus = bus;
        let stage = registry.histogram("hsm.stage_hist_s");
        stage.merge_from(&self.stage_hist);
        self.stage_hist = stage;
        let archive = registry.histogram("hsm.archive_hist_s");
        archive.merge_from(&self.archive_hist);
        self.archive_hist = archive;
        let storms = registry.counter("hsm.watermark_storms");
        storms.add(self.storms.get());
        self.storms = storms;
    }

    /// Injected watermark storms weathered so far.
    pub fn watermark_storms(&self) -> u64 {
        self.storms.get()
    }

    /// The shared simulated clock.
    pub fn clock(&self) -> SimClock {
        self.library.clock().clone()
    }

    /// Tape-side statistics.
    pub fn tape_stats(&self) -> TapeStats {
        self.library.stats()
    }

    /// Disk-side statistics.
    pub fn disk_stats(&self) -> DiskStats {
        self.disk.stats()
    }

    /// Number of whole-file staging operations performed.
    pub fn stage_ops(&self) -> u64 {
        self.stage_ops
    }

    /// The file catalog (read-only).
    pub fn catalog(&self) -> &FileCatalog {
        &self.catalog
    }

    /// Direct access to the tape library (used by tests and experiments).
    pub fn library_mut(&mut self) -> &mut TapeLibrary {
        &mut self.library
    }

    /// Archive a file: write it to tape (appending to the current fill
    /// medium, opening a new one when full). The staging disk is *not*
    /// populated — freshly generated HPC output goes straight to the
    /// archive, matching the paper's data flow.
    pub fn archive(&mut self, name: &str, payload: WritePayload) -> Result<()> {
        if self.catalog.contains(name) {
            return Err(HsmError::FileExists(name.to_string()));
        }
        let len = payload.len();
        let medium = self.pick_fill_medium(len)?;
        let span = self.bus.span_start(
            "hsm.archive",
            self.clock().now_s(),
            &[
                ("file", Field::dyn_str(name)),
                ("bytes", Field::U64(len)),
                ("medium", Field::U64(medium)),
            ],
        );
        let t0 = self.clock().now_s();
        let offset = self.library.write(medium, payload)?;
        let t1 = self.clock().now_s();
        self.archive_hist.observe(t1 - t0);
        self.bus.span_end(span, t1);
        self.catalog.insert(
            name,
            FileEntry {
                medium,
                offset,
                len,
            },
        );
        Ok(())
    }

    fn pick_fill_medium(&mut self, need: u64) -> Result<MediumId> {
        if let Some(m) = self.fill_medium {
            if self.library.medium_free(m)? >= need {
                return Ok(m);
            }
        }
        let m = self.library.add_medium();
        self.fill_medium = Some(m);
        if self.library.medium_free(m)? < need {
            return Err(HsmError::Tape(heaven_tape::TapeError::MediumFull {
                medium: m,
                need,
                free: self.library.medium_free(m)?,
            }));
        }
        Ok(m)
    }

    /// Read a byte range of an archived file.
    ///
    /// If the file is not staged, the **entire file** is first copied from
    /// tape to the staging disk (the HSM granularity limitation), purging
    /// LRU files per the watermark policy to make room. The returned
    /// `Bytes` aliases the staged copy — repeat reads never re-copy.
    pub fn read_range(&mut self, name: &str, offset: u64, len: u64) -> Result<Bytes> {
        let entry = self
            .catalog
            .get(name)
            .ok_or_else(|| HsmError::NoSuchFile(name.to_string()))?;
        if offset + len > entry.len {
            return Err(HsmError::BadRange {
                file: name.to_string(),
                offset,
                len,
                file_len: entry.len,
            });
        }
        if !self.disk.contains(name) {
            self.stage(name, entry)?;
        }
        self.disk
            .read(name, offset, len)
            .ok_or_else(|| HsmError::NoSuchFile(name.to_string()))
    }

    /// Read a whole archived file.
    pub fn read(&mut self, name: &str) -> Result<Bytes> {
        let entry = self
            .catalog
            .get(name)
            .ok_or_else(|| HsmError::NoSuchFile(name.to_string()))?;
        self.read_range(name, 0, entry.len)
    }

    /// Whether a file is currently staged on disk.
    pub fn is_staged(&self, name: &str) -> bool {
        self.disk.contains(name)
    }

    /// Stage the whole file from tape to disk.
    fn stage(&mut self, name: &str, entry: FileEntry) -> Result<()> {
        if entry.len > self.disk.capacity() {
            return Err(HsmError::StagingTooSmall {
                need: entry.len,
                capacity: self.disk.capacity(),
            });
        }
        let t0 = self.clock().now_s();
        let span = self.bus.span_start(
            "hsm.stage",
            t0,
            &[
                ("file", Field::dyn_str(name)),
                ("bytes", Field::U64(entry.len)),
                ("medium", Field::U64(entry.medium)),
            ],
        );
        // Injected staging-disk-full storm: a burst of foreign staging
        // traffic fills the disk past the high watermark and the
        // watermark daemon purges down to the low mark. The foreign
        // files are newer than ours, so our entire staged working set is
        // the LRU victim — it vanishes through no fault of this
        // workload, exactly what a shared HSM does under load.
        if self
            .library
            .roll_fault(FaultKind::StagingStorm, key64(name.as_bytes()), 0)
        {
            while let Some((victim, _)) = self.disk.lru_candidate() {
                self.note_purge(&victim, "storm");
                self.disk.remove(&victim);
            }
            self.storms.inc();
            self.bus.event(
                "hsm.watermark_storm",
                self.clock().now_s(),
                &[("file", Field::dyn_str(name))],
            );
        }
        // Purge down to the low watermark if the incoming file pushes us
        // past the high watermark.
        if self
            .policy
            .should_purge(self.disk.used(), entry.len, self.disk.capacity())
        {
            let target = self
                .policy
                .purge_target(self.disk.capacity())
                .saturating_sub(
                    entry
                        .len
                        .min(self.policy.purge_target(self.disk.capacity())),
                );
            while self.disk.used() > target {
                match self.disk.lru_candidate() {
                    Some((victim, _)) => {
                        self.note_purge(&victim, "watermark");
                        self.disk.remove(&victim);
                    }
                    None => break,
                }
            }
        }
        // Ensure it fits at all.
        while self.disk.used() + entry.len > self.disk.capacity() {
            match self.disk.lru_candidate() {
                Some((victim, _)) => {
                    self.note_purge(&victim, "fit");
                    self.disk.remove(&victim);
                }
                None => {
                    self.bus.span_end(span, self.clock().now_s());
                    return Err(HsmError::StagingTooSmall {
                        need: entry.len,
                        capacity: self.disk.capacity(),
                    });
                }
            }
        }
        let data = self.library.read(entry.medium, entry.offset, entry.len)?;
        // Phantom media return zeroed buffers; store real bytes only when
        // the tape had real bytes (all zeros ⇒ keep them, correctness is
        // preserved either way).
        self.disk.store(name, entry.len, Some(data));
        self.stage_ops += 1;
        let t1 = self.clock().now_s();
        self.stage_hist.observe(t1 - t0);
        self.bus.span_end(span, t1);
        Ok(())
    }

    fn note_purge(&self, victim: &str, reason: &'static str) {
        self.bus.event(
            "hsm.purge",
            self.clock().now_s(),
            &[
                ("file", Field::dyn_str(victim)),
                ("reason", Field::StaticStr(reason)),
            ],
        );
    }

    /// Drop a file's staged disk copy (the tape copy remains). Used to
    /// force cold reads in experiments.
    pub fn purge_staged(&mut self, name: &str) {
        self.note_purge(name, "explicit");
        self.disk.remove(name);
    }

    /// Delete a file from the archive (catalog entry + staged copy; the
    /// tape bytes become dead space until the medium is recycled).
    pub fn delete(&mut self, name: &str) -> Result<()> {
        self.catalog
            .remove(name)
            .ok_or_else(|| HsmError::NoSuchFile(name.to_string()))?;
        self.disk.remove(name);
        self.bus.event(
            "hsm.delete",
            self.clock().now_s(),
            &[("file", Field::dyn_str(name))],
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heaven_tape::{DeviceProfile, DiskProfile};

    fn hsm(disk_cap: u64) -> HsmSystem {
        let clock = SimClock::new();
        let disk = StagingDisk::new(DiskProfile::scsi2003(), disk_cap, clock.clone());
        let lib = TapeLibrary::new(DeviceProfile::ibm3590(), 1, clock);
        HsmSystem::new(disk, lib, WatermarkPolicy::default())
    }

    #[test]
    fn archive_and_read_back() {
        let mut h = hsm(1 << 30);
        h.archive("f1", WritePayload::real(vec![5u8; 4096]))
            .unwrap();
        assert!(!h.is_staged("f1"));
        let data = h.read("f1").unwrap();
        assert_eq!(data, vec![5u8; 4096]);
        assert!(h.is_staged("f1"));
        assert_eq!(h.stage_ops(), 1);
    }

    #[test]
    fn duplicate_archive_rejected() {
        let mut h = hsm(1 << 30);
        h.archive("f", WritePayload::Phantom(10)).unwrap();
        assert!(matches!(
            h.archive("f", WritePayload::Phantom(10)),
            Err(HsmError::FileExists(_))
        ));
    }

    #[test]
    fn range_read_stages_whole_file() {
        let mut h = hsm(1 << 30);
        let file_len: u64 = 64 << 20; // 64 MB
        h.archive("big", WritePayload::Phantom(file_len)).unwrap();
        let before = h.tape_stats();
        // Ask for 1 KB out of 64 MB.
        let part = h.read_range("big", 1000, 1024).unwrap();
        assert_eq!(part.len(), 1024);
        let delta = h.tape_stats().since(&before);
        assert_eq!(
            delta.bytes_read, file_len,
            "HSM must stage the WHOLE file from tape"
        );
        // Second range read hits the staged copy: no more tape traffic.
        let before = h.tape_stats();
        h.read_range("big", 0, 4096).unwrap();
        assert_eq!(h.tape_stats().since(&before).bytes_read, 0);
        assert_eq!(h.stage_ops(), 1);
    }

    #[test]
    fn bad_range_is_error() {
        let mut h = hsm(1 << 30);
        h.archive("f", WritePayload::Phantom(100)).unwrap();
        assert!(matches!(
            h.read_range("f", 90, 20),
            Err(HsmError::BadRange { .. })
        ));
    }

    #[test]
    fn purge_happens_at_watermark() {
        // Disk of 100 MB; three 40 MB files can't all stay staged.
        let mut h = hsm(100 << 20);
        for i in 0..3 {
            h.archive(&format!("f{i}"), WritePayload::Phantom(40 << 20))
                .unwrap();
        }
        h.read("f0").unwrap();
        h.read("f1").unwrap();
        h.read("f2").unwrap(); // must purge f0 (LRU)
        assert!(!h.is_staged("f0"));
        assert!(h.is_staged("f2"));
        // Re-reading f0 stages again (another tape access).
        let before = h.tape_stats();
        h.read("f0").unwrap();
        assert!(h.tape_stats().since(&before).bytes_read > 0);
    }

    #[test]
    fn file_larger_than_disk_fails() {
        let mut h = hsm(10 << 20);
        h.archive("huge", WritePayload::Phantom(20 << 20)).unwrap();
        assert!(matches!(
            h.read("huge"),
            Err(HsmError::StagingTooSmall { .. })
        ));
    }

    #[test]
    fn files_span_multiple_media_when_full() {
        let clock = SimClock::new();
        let disk = StagingDisk::new(DiskProfile::scsi2003(), 1 << 30, clock.clone());
        let profile = DeviceProfile {
            media_capacity: 100,
            ..DeviceProfile::ibm3590()
        };
        let lib = TapeLibrary::new(profile, 1, clock);
        let mut h = HsmSystem::new(disk, lib, WatermarkPolicy::default());
        h.archive("a", WritePayload::Phantom(80)).unwrap();
        h.archive("b", WritePayload::Phantom(80)).unwrap();
        let ea = h.catalog().get("a").unwrap();
        let eb = h.catalog().get("b").unwrap();
        assert_ne!(ea.medium, eb.medium);
    }

    #[test]
    fn stage_span_contains_tape_events() {
        use heaven_obs::RecordKind;
        let mut h = hsm(1 << 30);
        let registry = MetricsRegistry::new();
        let bus = TraceBus::ring(256);
        h.attach_obs(&registry, bus.clone());
        h.archive("f", WritePayload::Phantom(1 << 20)).unwrap();
        h.read_range("f", 0, 16).unwrap(); // cold: stages the whole file
        let recs = bus.records();
        let stage = recs
            .iter()
            .find(|r| r.name == "hsm.stage" && r.kind == RecordKind::SpanStart)
            .expect("stage span");
        assert!(
            recs.iter()
                .any(|r| r.name == "tape.transfer" && r.parent == Some(stage.span)),
            "tape transfer must nest inside the stage span"
        );
        heaven_obs::trace::check_well_nested(&recs).unwrap();
        assert!(registry.counter("tape.bytes_read").get() >= 1 << 20);
    }

    #[test]
    fn watermark_storm_purges_staged_files() {
        use heaven_tape::FaultConfig;
        let mut h = hsm(1 << 30);
        h.archive("a", WritePayload::Phantom(10 << 20)).unwrap();
        h.archive("b", WritePayload::Phantom(10 << 20)).unwrap();
        h.read("a").unwrap();
        assert!(h.is_staged("a"));
        h.library_mut().set_fault_plan(Some(FaultConfig {
            staging_storm_per_stage: 1.0,
            ..FaultConfig::quiet(1)
        }));
        h.read("b").unwrap(); // stage of b triggers the storm
        assert_eq!(h.watermark_storms(), 1);
        assert!(
            !h.is_staged("a"),
            "storm must purge the previously staged file"
        );
        // Correctness is unaffected: a re-stages cleanly.
        h.library_mut().set_fault_plan(None);
        h.read("a").unwrap();
    }

    #[test]
    fn delete_removes_catalog_and_staged_copy() {
        let mut h = hsm(1 << 30);
        h.archive("f", WritePayload::Phantom(1024)).unwrap();
        h.read("f").unwrap();
        h.delete("f").unwrap();
        assert!(!h.is_staged("f"));
        assert!(matches!(h.read("f"), Err(HsmError::NoSuchFile(_))));
        assert!(matches!(h.delete("f"), Err(HsmError::NoSuchFile(_))));
    }
}
