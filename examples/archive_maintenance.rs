//! Archive maintenance (paper §3.6): updating archived data in place,
//! deleting objects, re-importing an object to disk, and reclaiming the
//! dead space both operations leave on append-only tape media.
//!
//! ```sh
//! cargo run --release --example archive_maintenance
//! ```

use heaven::array::{CellType, MDArray, Minterval, Point, Tiling};
use heaven::core::{ExportMode, HeavenConfig};
use heaven::tape::DeviceProfile;

fn main() {
    let mut heaven = heaven::open(
        DeviceProfile::ibm3590(),
        1,
        HeavenConfig {
            supertile_bytes: Some(256 << 10),
            ..HeavenConfig::default()
        },
    );
    heaven
        .arraydb_mut()
        .create_collection("fields", CellType::I32, 2)
        .expect("collection");

    let domain = Minterval::new(&[(0, 99), (0, 99)]).unwrap();
    let mut oids = Vec::new();
    for k in 0..3i64 {
        let arr = MDArray::generate(domain.clone(), CellType::I32, |p| {
            (k * 10_000 + p.coord(0) * 100 + p.coord(1)) as f64
        });
        let oid = heaven
            .arraydb_mut()
            .insert_object(
                "fields",
                &arr,
                Tiling::Regular {
                    tile_shape: vec![25, 25],
                },
            )
            .expect("insert");
        heaven.export_object(oid, ExportMode::Tct).expect("export");
        oids.push(oid);
    }
    let st = heaven.catalog().object_supertiles(oids[0])[0];
    let medium = heaven.catalog().address(st).expect("address").medium;
    println!("archived {} objects on medium {medium}", oids.len());

    // 1. In-place update: a corrected calibration patch over object 0.
    let patch = MDArray::generate(
        Minterval::new(&[(40, 59), (40, 59)]).unwrap(),
        CellType::I32,
        |_| -7.0,
    );
    heaven.update_region(oids[0], &patch).expect("update");
    heaven.clear_caches();
    let check = heaven
        .fetch_region_hierarchical(oids[0], &Minterval::new(&[(39, 41), (39, 41)]).unwrap())
        .expect("read back");
    println!(
        "after update: cell (40,40) = {} (patched), cell (39,39) = {} (original)",
        check.get_f64(&Point::new(vec![40, 40])).unwrap(),
        check.get_f64(&Point::new(vec![39, 39])).unwrap(),
    );
    println!(
        "dead space on medium {medium}: {} bytes ({:.0}%)",
        heaven.dead_bytes_on(medium),
        heaven.dead_fraction(medium) * 100.0
    );

    // 2. Delete an entire object: more dead space.
    heaven.delete_object(oids[1]).expect("delete");
    println!(
        "after delete: dead fraction {:.0}%",
        heaven.dead_fraction(medium) * 100.0
    );

    // 3. Reclaim the medium once the dead fraction crosses 20 %.
    let rewritten = heaven.reclaim_medium(medium, 0.20).expect("reclaim");
    println!(
        "compaction rewrote {rewritten} live super-tiles; dead fraction now {:.0}%",
        heaven.dead_fraction(medium) * 100.0
    );

    // 4. Re-import the remaining archived object for intensive local work.
    heaven.reimport_object(oids[2]).expect("reimport");
    let tape_before = heaven.tape_stats().bytes_read;
    let sub = heaven
        .fetch_region_hierarchical(oids[2], &domain)
        .expect("disk read");
    assert_eq!(heaven.tape_stats().bytes_read, tape_before);
    println!(
        "re-imported object {}: {} cells readable with zero tape traffic",
        oids[2],
        sub.domain().cell_count()
    );

    println!("\ntotal simulated time {:.1} s", heaven.clock().now_s());
}
