//! Archive maintenance under dual-copy archival: compacting a medium
//! must keep every live copy on it (replicas included), and a medium's
//! dead space must mean the same thing whether it was tracked through
//! deletes, updates and re-imports or recomputed from the persisted
//! catalog.

use heaven::array::{CellType, MDArray, Minterval, ObjectId, Tiling};
use heaven::core::{ExportMode, Heaven, HeavenConfig};
use heaven::tape::DeviceProfile;
use heaven::workload::climate_field;

fn mi(b: &[(i64, i64)]) -> Minterval {
    Minterval::new(b).unwrap()
}

/// `n` 64² climate fields in 16² tiles, exported with a second copy of
/// every 8 KiB super-tile on a replica medium, caches cleared.
fn dual_copy_archive(n: u64) -> (Heaven, Vec<(ObjectId, MDArray)>) {
    let mut heaven = heaven::open(
        DeviceProfile::ibm3590(),
        2,
        HeavenConfig {
            supertile_bytes: Some(8 << 10),
            dual_copy: true,
            ..HeavenConfig::default()
        },
    );
    heaven
        .arraydb_mut()
        .create_collection("c", CellType::F32, 2)
        .unwrap();
    let mut objects = Vec::new();
    for seed in 0..n {
        let field = climate_field(mi(&[(0, 63), (0, 63)]), seed + 3);
        let tiling = Tiling::Regular {
            tile_shape: vec![16, 16],
        };
        let oid = heaven
            .arraydb_mut()
            .insert_object("c", &field, tiling)
            .unwrap();
        heaven.export_object(oid, ExportMode::Tct).unwrap();
        objects.push((oid, field));
    }
    heaven.clear_caches();
    (heaven, objects)
}

#[test]
fn reclaiming_a_replica_medium_keeps_its_live_replicas() {
    let (mut heaven, objects) = dual_copy_archive(2);
    let (kept, field) = &objects[1];
    let sts = heaven.catalog().object_supertiles(*kept);
    let primary = heaven.catalog().address(sts[0]).unwrap().medium;
    let replica = heaven.catalog().replica(sts[0]).unwrap().medium;
    assert_ne!(primary, replica, "replicas live off the primary's medium");
    let live: u64 = sts
        .iter()
        .map(|&st| heaven.catalog().replica(st).unwrap().len)
        .sum();

    heaven.delete_object(objects[0].0).unwrap();
    assert!(heaven.dead_fraction(replica) >= 0.3);
    let rewritten = heaven.reclaim_medium(replica, 0.3).unwrap();
    assert_eq!(rewritten, sts.len(), "every live replica is rewritten");
    let used = heaven.store().library().medium_used(replica).unwrap();
    assert_eq!(
        used, live,
        "the compacted medium holds exactly the replicas"
    );
    assert_eq!(heaven.dead_bytes_on(replica), 0);

    // The relocated replicas are persisted: a catalog rebuilt from the
    // base tables points at them too.
    let before: Vec<_> = sts.iter().map(|&st| heaven.catalog().replica(st)).collect();
    heaven.rebuild_archive_catalog().unwrap();
    let after: Vec<_> = sts.iter().map(|&st| heaven.catalog().replica(st)).collect();
    assert_eq!(after, before);

    // Each rewritten replica holds its primary's exact wire bytes, and
    // the object still reads back whole.
    for &st in &sts {
        let (addr, rep) = {
            let cat = heaven.catalog();
            (cat.address(st).unwrap(), cat.replica(st).unwrap())
        };
        let want = heaven.store().read(addr).unwrap();
        assert_eq!(heaven.store().read(rep).unwrap(), want, "super-tile {st}");
    }
    heaven.clear_caches();
    let back = heaven
        .fetch_region_hierarchical(*kept, field.domain())
        .unwrap();
    assert_eq!(&back, field);
}

#[test]
fn dead_space_agrees_with_the_rebuilt_catalog_under_dual_copy() {
    let (mut heaven, objects) = dual_copy_archive(3);
    heaven.delete_object(objects[0].0).unwrap();
    let patch = MDArray::generate(mi(&[(0, 20), (0, 20)]), CellType::F32, |_| -1.0);
    heaven.update_region(objects[1].0, &patch).unwrap();
    heaven.reimport_object(objects[2].0).unwrap();

    let media = heaven.store().library().media_ids();
    let tracked: Vec<u64> = media.iter().map(|&m| heaven.dead_bytes_on(m)).collect();
    heaven.rebuild_archive_catalog().unwrap();
    let rebuilt: Vec<u64> = media.iter().map(|&m| heaven.dead_bytes_on(m)).collect();
    assert_eq!(tracked, rebuilt, "dead bytes per medium {media:?}");

    // Every medium holds dead copies now: the deleted and re-imported
    // objects' primaries and replicas, and the updated super-tiles' old
    // versions of both copies.
    for (&m, &dead) in media.iter().zip(&tracked) {
        if heaven.store().library().medium_used(m).unwrap() > 0 {
            assert!(dead > 0, "medium {m} has no dead bytes");
        }
    }
}
