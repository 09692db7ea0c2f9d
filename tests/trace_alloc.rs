//! End-to-end allocation parity: turning the ring trace sink on must not
//! add heap allocations to a warm query — the record→sink path is
//! allocation-free, and every call-site field is either numeric, static,
//! or inlined (`Field::dyn_str`).
//!
//! One test per file: the counting global allocator is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use heaven::array::{CellType, Minterval, Tiling};
use heaven::core::{ExportMode, HeavenConfig};
use heaven::obs::TraceConfig;
use heaven::tape::DeviceProfile;
use heaven::workload::climate_field;

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

/// Allocations across 64 warm bracketed queries under `trace`.
fn warm_query_allocs(trace: TraceConfig) -> u64 {
    let mut heaven = heaven::open(
        DeviceProfile::ibm3590(),
        1,
        HeavenConfig {
            supertile_bytes: Some(8 << 10),
            trace,
            ..HeavenConfig::default()
        },
    );
    heaven
        .arraydb_mut()
        .create_collection("c", CellType::F32, 2)
        .unwrap();
    let field = climate_field(mi(&[(0, 63), (0, 63)]), 17);
    let oid = heaven
        .arraydb_mut()
        .insert_object(
            "c",
            &field,
            Tiling::Regular {
                tile_shape: vec![16, 16],
            },
        )
        .unwrap();
    heaven.export_object(oid, ExportMode::Tct).unwrap();
    heaven.clear_caches();
    let region = mi(&[(16, 47), (16, 47)]);
    // Warm-up pass: stage the super-tiles, fill caches, intern names.
    for _ in 0..4 {
        heaven.fetch_region_hierarchical(oid, &region).unwrap();
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..64 {
        heaven.begin_query("bench");
        heaven.fetch_region_hierarchical(oid, &region).unwrap();
        heaven.end_query().unwrap();
    }
    ALLOCS.load(Ordering::Relaxed) - before
}

/// Head sampling is covered too: a sampled-out query's records go to a
/// per-thread side buffer reserved during warm-up, never per query.
#[test]
fn ring_trace_adds_no_allocations_to_warm_queries() {
    let off = warm_query_allocs(TraceConfig::off());
    for trace in [
        TraceConfig::ring(1 << 14),
        TraceConfig::ring(1 << 14).with_sample(8),
    ] {
        let ring = warm_query_allocs(trace.clone());
        assert_eq!(
            ring, off,
            "ring tracing changed the warm-query allocation count \
             (off: {off}, ring: {ring} allocations per 64 queries, {trace:?})"
        );
    }
}
