//! One retrieval engine: the single-owner facade and a lone session run
//! the same body, so they must agree on bytes, simulated latency and
//! tertiary work; every staging path undoes the wire codec and climbs
//! the same recovery ladder; and rasql runs on sessions against the same
//! precomputed-result catalog.

use heaven::array::{CellType, MDArray, Minterval, ObjectId, Tiling};
use heaven::arraydb::run;
use heaven::core::{ExportMode, Heaven, HeavenConfig, HeavenError, PrefetchPolicy};
use heaven::hsm::HsmError;
use heaven::tape::{DeviceProfile, FaultConfig, TapeError};
use heaven::workload::climate_field;

fn mi(b: &[(i64, i64)]) -> Minterval {
    Minterval::new(b).unwrap()
}

/// A 128² climate field in 16² tiles, exported as 8 KiB super-tiles
/// (eight tiles each), caches cleared.
fn archive(profile: DeviceProfile, config: HeavenConfig) -> (Heaven, ObjectId, MDArray) {
    let field = climate_field(mi(&[(0, 127), (0, 127)]), 7);
    let mut heaven = heaven::open(
        profile,
        2,
        HeavenConfig {
            supertile_bytes: Some(8 << 10),
            ..config
        },
    );
    let adb = heaven.arraydb_mut();
    adb.create_collection("c", CellType::F32, 2).unwrap();
    let tiling = Tiling::Regular {
        tile_shape: vec![16, 16],
    };
    let oid = adb.insert_object("c", &field, tiling).unwrap();
    heaven.export_object(oid, ExportMode::Tct).unwrap();
    heaven.clear_caches();
    (heaven, oid, field)
}

fn tape_fetches(h: &Heaven) -> u64 {
    h.stats().st_tape_fetches
}

/// Simulated seconds on the clock's microsecond grid.
fn micros(s: f64) -> i64 {
    (s * 1e6).round() as i64
}

fn compressed() -> HeavenConfig {
    HeavenConfig {
        compress: true,
        ..HeavenConfig::default()
    }
}

#[test]
fn compressed_fetch_batch_returns_exact_bytes() {
    let (mut heaven, oid, field) = archive(DeviceProfile::ibm3590(), compressed());
    let regions = [mi(&[(0, 63), (0, 63)]), mi(&[(40, 127), (70, 127)])];
    let requests: Vec<(ObjectId, Minterval)> = regions.iter().map(|r| (oid, r.clone())).collect();
    let got = heaven.fetch_batch(&requests).unwrap();
    assert!(tape_fetches(&heaven) > 0, "the batch staged from tape");
    for (arr, region) in got.iter().zip(&regions) {
        assert_eq!(arr, &field.extract(region).unwrap(), "region {region}");
    }
}

#[test]
fn compressed_prefetch_then_whole_object_returns_exact_bytes() {
    let config = HeavenConfig {
        prefetch: PrefetchPolicy::NextInOrder(4),
        ..compressed()
    };
    let (mut heaven, oid, field) = archive(DeviceProfile::ibm3590(), config);
    heaven
        .fetch_region_hierarchical(oid, &mi(&[(0, 15), (0, 15)]))
        .unwrap();
    assert!(heaven.stats().prefetches > 0, "prefetch staged super-tiles");
    let whole = field.domain().clone();
    let got = heaven.fetch_region_hierarchical(oid, &whole).unwrap();
    assert_eq!(got, field);
}

/// An archive whose every medium has been erased after export.
fn erased_archive(config: HeavenConfig) -> (Heaven, ObjectId) {
    let (heaven, oid, _) = archive(DeviceProfile::ibm3590(), config);
    let media = heaven.store().library().media_ids();
    for m in media {
        heaven.store().library_mut().erase_medium(m).unwrap();
    }
    (heaven, oid)
}

fn assert_read_unwritten<T: std::fmt::Debug>(res: heaven::core::Result<T>, what: &str) {
    assert!(
        matches!(
            res,
            Err(HeavenError::Hsm(HsmError::Tape(
                TapeError::ReadUnwritten { .. }
            )))
        ),
        "{what}: {res:?}"
    );
}

#[test]
fn every_staging_path_reports_an_erased_medium_as_the_same_typed_error() {
    let region = mi(&[(0, 63), (0, 63)]);
    let (mut heaven, oid) = erased_archive(HeavenConfig::default());
    assert_read_unwritten(heaven.fetch_region_hierarchical(oid, &region), "facade");
    assert_read_unwritten(
        heaven.session().fetch_region(oid, &region),
        "batching session",
    );
    let (direct, oid) = erased_archive(HeavenConfig {
        cross_session_batching: false,
        ..HeavenConfig::default()
    });
    assert_read_unwritten(
        direct.session().fetch_region(oid, &region),
        "direct session",
    );
}

/// What one query cost: result, simulated microseconds, tape fetches.
type Cost<T> = (T, i64, u64);

fn assert_same_cost<T: PartialEq>(got: &Cost<T>, want: &Cost<T>, what: &str) {
    assert_eq!(
        (got.1, got.2),
        (want.1, want.2),
        "{what}: (sim µs, fetches)"
    );
    assert!(got.0 == want.0, "{what}: results differ");
}

/// The same query sequence on the facade and on one lone session over
/// identical archives: a cold region, a partly warm region (cache hits
/// mixed with tape misses, sparse reads and prefetch on MO), then a
/// rasql trim and condenser.
fn assert_facade_matches_lone_session(profile: DeviceProfile, prefetch: PrefetchPolicy) {
    // Direct staging: batched staging lets tape work overlap a lane's
    // disk-cache reads, so only a direct-staging session is cost-exact.
    let config = HeavenConfig {
        prefetch,
        cross_session_batching: false,
        ..HeavenConfig::default()
    };
    let (mut facade, oid, _) = archive(profile, config.clone());
    let (shared, oid_b, _) = archive(profile, config);
    assert_eq!(oid, oid_b);
    let regions = [
        mi(&[(0, 10), (0, 10)]),
        mi(&[(0, 60), (10, 100)]),
        mi(&[(100, 127), (0, 127)]),
    ];
    let queries = [
        "select c[30:90, 5:40] from c",
        "select avg_cells(c[8:120, 64:127]) from c",
    ];

    let mut facade_costs: Vec<Cost<MDArray>> = Vec::new();
    for r in &regions {
        let f0 = tape_fetches(&facade);
        let a = facade.fetch_region_hierarchical(oid, r).unwrap();
        let total = facade.last_query_breakdown().unwrap().total_s;
        facade_costs.push((a, micros(total), tape_fetches(&facade) - f0));
    }
    let mut facade_rasql = Vec::new();
    for q in queries {
        let f0 = tape_fetches(&facade);
        let res = run(&mut facade, q).unwrap();
        let total = facade.last_query_breakdown().unwrap().total_s;
        facade_rasql.push((res, micros(total), tape_fetches(&facade) - f0));
    }

    let mut session = shared.session();
    for (r, want) in regions.iter().zip(&facade_costs) {
        let (f0, l0) = (tape_fetches(&shared), session.now_s());
        let b = session.fetch_region(oid, r).unwrap();
        let got = (b, micros(session.now_s() - l0), tape_fetches(&shared) - f0);
        assert_same_cost(&got, want, &format!("region {r}"));
    }
    for (q, want) in queries.iter().zip(&facade_rasql) {
        let (f0, l0) = (tape_fetches(&shared), session.now_s());
        let res = run(&mut session, q).unwrap();
        let got = (
            res,
            micros(session.now_s() - l0),
            tape_fetches(&shared) - f0,
        );
        assert_same_cost(&got, want, q);
    }
    assert!(facade_costs.iter().any(|c| c.2 > 0), "tape was exercised");
}

#[test]
fn facade_and_lone_session_agree_on_tape() {
    assert_facade_matches_lone_session(DeviceProfile::ibm3590(), PrefetchPolicy::None);
}

#[test]
fn facade_and_lone_session_agree_on_mo_with_sparse_reads_and_prefetch() {
    assert_facade_matches_lone_session(DeviceProfile::mo_disk(), PrefetchPolicy::NextInOrder(2));
}

#[test]
fn session_rasql_answers_condensers_from_the_precomputed_catalog() {
    let (mut heaven, _, _) = archive(DeviceProfile::ibm3590(), HeavenConfig::default());
    let q = "select avg_cells(c[0:63, 0:63]) from c";
    let facade = run(&mut heaven, q).unwrap();
    let hits0 = heaven.precomp_stats().exact_hits;
    let (fetches0, regions0) = (tape_fetches(&heaven), heaven.stats().region_fetches);
    let mut session = heaven.session();
    let got = run(&mut session, q).unwrap();
    drop(session);
    assert_eq!(got, facade);
    assert_eq!(heaven.precomp_stats().exact_hits, hits0 + 1);
    assert_eq!(heaven.stats().region_fetches, regions0, "no tile access");
    assert_eq!(tape_fetches(&heaven), fetches0);
}

/// `heaven.st_fetch_hist_s` after one cold batched fetch of one super-tile
/// under `faults`, with the number of re-reads it took.
fn batched_fetch_hist(faults: Option<FaultConfig>) -> (f64, u64, u64) {
    let (heaven, oid, _) = archive(DeviceProfile::ibm3590(), HeavenConfig::default());
    heaven.set_fault_plan(faults);
    let res = heaven.session().fetch_region(oid, &mi(&[(0, 15), (0, 15)]));
    let hist = heaven
        .metrics()
        .histogram("heaven.st_fetch_hist_s")
        .summary();
    let retries = heaven.metrics().counter("hsm.retries").get();
    assert!(res.is_ok() || retries > 1, "{res:?}");
    (hist.sum, hist.count, retries)
}

/// A batched fetch observes its whole recovery ladder — the failed read,
/// the backoff and the re-read — as direct staging does, not only the
/// drain round that finally staged the payload.
#[test]
fn batched_st_fetch_histogram_covers_the_whole_recovery_ladder() {
    let (clean_s, count, _) = batched_fetch_hist(None);
    assert_eq!(count, 1);
    // The first seed whose schedule fails the first read once and lets
    // the re-read through (fault decisions are a pure function of it).
    let (ladder_s, _, _) = (0..256)
        .map(|seed| {
            batched_fetch_hist(Some(FaultConfig {
                media_read_error_per_read: 0.5,
                ..FaultConfig::quiet(seed)
            }))
        })
        .find(|&(_, count, retries)| count == 1 && retries == 1)
        .expect("a seed with exactly one re-read");
    // The failed first read pays at least the clean read's mount, locate
    // and transfer; the re-read follows the first retry's backoff.
    let backoff_s = heaven::core::RetryPolicy::default().backoff_s(1);
    assert!(
        ladder_s >= clean_s + backoff_s,
        "batched observation {ladder_s} s misses the ladder (clean read {clean_s} s + backoff {backoff_s} s)"
    );
}
