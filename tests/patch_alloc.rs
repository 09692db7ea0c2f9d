//! Allocation bound of the region-copy kernel: one `patch` allocates the
//! same number of times however many rows its overlap has — the strides
//! are set up once per call, and no row allocates.
//!
//! One test per file: the counting global allocator is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use heaven::array::{CellType, MDArray, Minterval, Point};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn mi(b: &[(i64, i64)]) -> Minterval {
    Minterval::new(b).unwrap()
}

/// Allocations of one `patch` of `src` into an owned 4096 × 64 array; the
/// overlap is `src`'s rows, each half a dst row (so rows do not merge).
fn patch_allocs(src: &MDArray) -> u64 {
    let mut dst = MDArray::zeros(mi(&[(0, 4095), (0, 63)]), CellType::F32);
    let before = ALLOCS.load(Ordering::Relaxed);
    let copied = dst.patch(src).unwrap();
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(copied, src.size_bytes());
    assert_eq!(dst.sum(), src.sum());
    allocs
}

#[test]
fn patch_allocations_do_not_grow_with_the_overlap_rows() {
    let ramp = |p: &Point| (p.coord(0) + p.coord(1)) as f64;
    let one_row = MDArray::generate(mi(&[(7, 7), (16, 47)]), CellType::F32, ramp);
    let all_rows = MDArray::generate(mi(&[(0, 4095), (16, 47)]), CellType::F32, ramp);
    let one = patch_allocs(&one_row);
    let many = patch_allocs(&all_rows);
    assert_eq!(
        many, one,
        "patch allocations grew with the overlap's row count \
         (1 row: {one}, 4096 rows: {many} allocations)"
    );
}
