//! Property-based tests of the array substrate's invariants.

use bytes::Bytes;
use heaven_array::{
    subtract_box, CellType, Frame, LinearOrder, MDArray, Minterval, Point, Tile, Tiling,
};
use proptest::prelude::*;

/// Strategy: a d-dimensional minterval with bounded extents.
fn minterval(dim: usize, max_extent: i64) -> impl Strategy<Value = Minterval> {
    prop::collection::vec((-50i64..50, 1i64..=max_extent), dim).prop_map(|axes| {
        Minterval::new(
            &axes
                .into_iter()
                .map(|(lo, ext)| (lo, lo + ext - 1))
                .collect::<Vec<_>>(),
        )
        .expect("lo <= hi by construction")
    })
}

const CELL_TYPES: [CellType; 5] = [
    CellType::U8,
    CellType::I16,
    CellType::I32,
    CellType::F32,
    CellType::F64,
];

/// Strategy: a src and a dst box of one dimensionality (1–4), with
/// negative lower bounds, whose per-axis relation is drawn from:
/// independent, identical (the axis is spanned in full by both, so trailing
/// identical axes take the copy kernel's merged-run path), touching in one
/// position (all axes touching: a one-cell overlap), or disjoint.
fn box_pair() -> impl Strategy<Value = (Minterval, Minterval)> {
    prop::collection::vec((-8i64..8, 1i64..6, -8i64..8, 1i64..6, 0u8..4), 1..=4).prop_map(|axes| {
        let (mut src, mut dst) = (Vec::new(), Vec::new());
        for (slo, sext, dlo, dext, relation) in axes {
            let shi = slo + sext - 1;
            src.push((slo, shi));
            dst.push(match relation {
                0 => (dlo, dlo + dext - 1),
                1 => (slo, shi),
                2 => (shi, shi + dext - 1),
                _ => (shi + 1, shi + dext),
            });
        }
        (Minterval::new(&src).unwrap(), Minterval::new(&dst).unwrap())
    })
}

/// A cell value every cell type holds exactly, with the given parity.
fn cell_value(p: &Point, parity: i64) -> f64 {
    let h = p.0.iter().fold(7i64, |h, &c| h * 31 + c).rem_euclid(127);
    (2 * h + parity) as f64
}

proptest! {
    #[test]
    fn offset_point_roundtrip(m in minterval(3, 8), off_frac in 0.0f64..1.0) {
        let off = (m.cell_count() as f64 * off_frac) as u64 % m.cell_count();
        let p = m.point_at(off);
        prop_assert!(m.contains_point(&p));
        prop_assert_eq!(m.offset_of(&p).unwrap() as u64, off);
    }

    #[test]
    fn intersection_is_commutative_and_contained(
        a in minterval(2, 20),
        b in minterval(2, 20),
    ) {
        let ab = a.intersection(&b);
        let ba = b.intersection(&a);
        prop_assert_eq!(&ab, &ba);
        if let Some(i) = ab {
            prop_assert!(a.contains(&i));
            prop_assert!(b.contains(&i));
        }
    }

    #[test]
    fn hull_contains_both(a in minterval(3, 15), b in minterval(3, 15)) {
        let h = a.hull(&b).unwrap();
        prop_assert!(h.contains(&a));
        prop_assert!(h.contains(&b));
        // hull is minimal on each axis
        for i in 0..3 {
            prop_assert_eq!(h.axis(i).lo, a.axis(i).lo.min(b.axis(i).lo));
            prop_assert_eq!(h.axis(i).hi, a.axis(i).hi.max(b.axis(i).hi));
        }
    }

    #[test]
    fn subtract_box_partitions_correctly(
        a in minterval(2, 16),
        b in minterval(2, 16),
    ) {
        let parts = subtract_box(&a, &b);
        // parts are disjoint, inside a, outside b
        for (i, p) in parts.iter().enumerate() {
            prop_assert!(a.contains(p));
            prop_assert!(!p.intersects(&b));
            for q in &parts[i + 1..] {
                prop_assert!(!p.intersects(q));
            }
        }
        // cell counts add up
        let part_cells: u64 = parts.iter().map(|p| p.cell_count()).sum();
        prop_assert_eq!(part_cells, a.cell_count() - a.overlap_cells(&b));
    }

    #[test]
    fn frame_union_difference_invariants(
        a in minterval(2, 16),
        b in minterval(2, 16),
        c in minterval(2, 16),
    ) {
        let fa = Frame::from_box(a.clone());
        let fb = Frame::from_box(b.clone());
        let u = fa.union(&fb).unwrap();
        prop_assert!(u.check_disjoint());
        prop_assert_eq!(
            u.cell_count(),
            a.cell_count() + b.cell_count() - a.overlap_cells(&b)
        );
        let d = u.difference(&Frame::from_box(c.clone())).unwrap();
        prop_assert!(d.check_disjoint());
        // difference removed exactly the overlap
        prop_assert_eq!(d.cell_count(), u.cell_count() - u.overlap_cells(&c));
    }

    #[test]
    fn tiling_partitions_domain(
        m in minterval(2, 40),
        e0 in 1u64..12,
        e1 in 1u64..12,
    ) {
        let tiling = Tiling::Regular { tile_shape: vec![e0, e1] };
        let tiles = tiling.tile_domains(&m, CellType::U8).unwrap();
        let total: u64 = tiles.iter().map(|t| t.cell_count()).sum();
        prop_assert_eq!(total, m.cell_count());
        for (i, t) in tiles.iter().enumerate() {
            prop_assert!(m.contains(t));
            for u in &tiles[i + 1..] {
                prop_assert!(!t.intersects(u));
            }
        }
    }

    #[test]
    fn linearization_keys_unique(
        shape in prop::collection::vec(1u64..6, 2..4),
        order_idx in 0usize..4,
    ) {
        let order = [
            LinearOrder::RowMajor,
            LinearOrder::ColMajor,
            LinearOrder::ZOrder,
            LinearOrder::Hilbert,
        ][order_idx];
        let grid = Minterval::with_shape(&shape).unwrap();
        let mut keys: Vec<u128> = grid
            .iter_points()
            .map(|p| {
                let coords: Vec<u64> = p.0.iter().map(|&c| c as u64).collect();
                order.key(&coords, &shape)
            })
            .collect();
        let n = keys.len();
        keys.sort_unstable();
        keys.dedup();
        prop_assert_eq!(keys.len(), n);
    }

    #[test]
    fn tile_codec_roundtrip(
        m in minterval(2, 10),
        id in 0u64..1000,
        oid in 0u64..100,
        seed in 0u64..1000,
    ) {
        let data = MDArray::generate(m, CellType::I32, |p: &Point| {
            (seed as i64 + p.0.iter().sum::<i64>()) as f64
        });
        let tile = Tile::new(id, oid, data);
        let enc = tile.encode();
        let (dec, used) = Tile::decode(&enc).unwrap();
        prop_assert_eq!(used, enc.len());
        prop_assert_eq!(dec, tile);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn extract_patch_roundtrip(
        boxes in box_pair(),
        ty in 0usize..CELL_TYPES.len(),
    ) {
        let ((src_dom, dst_dom), ty) = (boxes, CELL_TYPES[ty]);
        // Odd cells in src, even in dst: a misplaced copy never matches.
        let src = MDArray::generate(src_dom.clone(), ty, |p: &Point| cell_value(p, 1));
        let before = MDArray::generate(dst_dom.clone(), ty, |p: &Point| cell_value(p, 0));
        let overlap = src_dom.intersection(&dst_dom);
        // The cell-wise reference: `set` every overlap cell to `get` of src.
        let mut expect = before.clone();
        for p in overlap.iter().flat_map(|o| o.iter_points()) {
            expect.set(&p, src.get_f64(&p).unwrap()).unwrap();
        }
        let region_bytes = overlap.as_ref().map_or(0, |o| o.cell_count() * ty.size_bytes() as u64);
        for shared in [false, true] {
            let backing = Bytes::from(before.bytes().to_vec());
            let mut dst = if shared {
                MDArray::from_shared(dst_dom.clone(), ty, backing.clone()).unwrap()
            } else {
                before.clone()
            };
            let copied = dst.patch(&src).unwrap();
            prop_assert_eq!(&dst, &expect);
            prop_assert_eq!(&backing[..], before.bytes(), "shared backing untouched");
            // A shared dst detaches (one whole-buffer copy) only to write.
            let detached = if shared && region_bytes > 0 { before.size_bytes() } else { 0 };
            prop_assert_eq!(copied, region_bytes + detached);
        }
        if let Some(o) = overlap {
            let piece = src.extract(&o).unwrap();
            prop_assert_eq!(piece.domain(), &o);
            for p in o.iter_points() {
                prop_assert_eq!(piece.get_f64(&p).unwrap(), src.get_f64(&p).unwrap());
            }
        }
    }
}
