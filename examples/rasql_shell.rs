//! An interactive RasQL shell over a pre-loaded HEAVEN archive.
//!
//! Loads three demo collections (climate fields, satellite scenes, CFD
//! output), archives them to simulated tape, and reads queries from stdin.
//!
//! ```sh
//! cargo run --release --example rasql_shell
//! # with a head-sampled JSONL trace for heaven-prof:
//! cargo run --release --example rasql_shell -- --trace /tmp/shell.jsonl --trace-sample 10
//! heaven> select avg_cells(era[0:11, 0:29, 0:59]) from era
//! heaven> select sat[0:99,0:99 | 400:511,400:511] from sat
//! heaven> select scale(sat[0:255,0:255], 8) from sat
//! heaven> select avg_cells(era[*:*,*:*,*:*]) from era as e where oid(e) = 1
//! heaven> \timing
//! heaven> \stats
//! heaven> \quit
//! ```
//!
//! `\timing` toggles the per-query breakdown: after each query the shell
//! prints where the simulated time went (disk cache, DBMS I/O, tape
//! exchange/locate/transfer/rewind, shelf). `\metrics` dumps the metrics
//! registry (counters, gauges, histogram quantiles); `\prom <file>`
//! writes it in Prometheus text exposition format.

use heaven::array::{CellType, Minterval, Tiling};
use heaven::arraydb::{run, Value};
use heaven::core::{ExportMode, HeavenConfig};
use heaven::obs::TraceConfig;
use heaven::tape::DeviceProfile;
use heaven::workload::{cfd_field, climate_field, satellite_image};
use std::io::{BufRead, Write};

/// `--trace <path>`: write a JSONL trace for offline profiling.
/// `--trace-sample <n>`: keep every n-th query trace (head sampling);
/// `--trace-slow <secs>`: keep sampled-out queries at least this slow.
fn trace_config() -> TraceConfig {
    let mut cfg = TraceConfig::off();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--trace" => {
                if let Some(path) = args.next() {
                    cfg.sink = TraceConfig::jsonl(path).sink;
                }
            }
            "--trace-sample" => {
                if let Some(n) = args.next().and_then(|v| v.parse().ok()) {
                    cfg.sample_1_in_n = n;
                }
            }
            "--trace-slow" => {
                if let Some(s) = args.next().and_then(|v| v.parse().ok()) {
                    cfg.keep_slow_s = s;
                }
            }
            _ => {}
        }
    }
    cfg
}

fn main() {
    println!("HEAVEN RasQL shell — loading demo archive...");
    let mut heaven = heaven::open(
        DeviceProfile::ibm3590(),
        2,
        HeavenConfig {
            supertile_bytes: Some(1 << 20),
            trace: trace_config(),
            ..HeavenConfig::default()
        },
    );

    // era: 12 months x 30 lat x 60 lon climate field
    heaven
        .arraydb_mut()
        .create_collection("era", CellType::F32, 3)
        .unwrap();
    let era = climate_field(Minterval::new(&[(0, 11), (0, 29), (0, 59)]).unwrap(), 1);
    let era_oid = heaven
        .arraydb_mut()
        .insert_object(
            "era",
            &era,
            Tiling::Regular {
                tile_shape: vec![4, 15, 15],
            },
        )
        .unwrap();

    // sat: one 512x512 vegetation-index scene
    heaven
        .arraydb_mut()
        .create_collection("sat", CellType::U8, 2)
        .unwrap();
    let sat = satellite_image(Minterval::new(&[(0, 511), (0, 511)]).unwrap(), 2);
    let sat_oid = heaven
        .arraydb_mut()
        .insert_object(
            "sat",
            &sat,
            Tiling::Regular {
                tile_shape: vec![128, 128],
            },
        )
        .unwrap();

    // cfd: a 64^3 turbulence field (kept on disk — mixed hierarchy)
    heaven
        .arraydb_mut()
        .create_collection("cfd", CellType::F64, 3)
        .unwrap();
    let cfd = cfd_field(Minterval::new(&[(0, 63), (0, 63), (0, 63)]).unwrap(), 3);
    heaven
        .arraydb_mut()
        .insert_object(
            "cfd",
            &cfd,
            Tiling::Regular {
                tile_shape: vec![32, 32, 32],
            },
        )
        .unwrap();

    // archive era + sat to tape; cfd stays on disk
    for oid in [era_oid, sat_oid] {
        heaven.export_object(oid, ExportMode::Tct).unwrap();
    }
    heaven.clear_caches();
    println!(
        "collections: era (3-D, archived), sat (2-D, archived), cfd (3-D, on disk)\n\
         commands: \\timing, \\stats, \\metrics, \\prom <file>, \\collections, \\quit\n"
    );

    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    let mut timing = false;
    loop {
        print!("heaven> ");
        out.flush().ok();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let line = line.trim();
        match line {
            "" => continue,
            "\\quit" | "\\q" | "exit" => break,
            "\\timing" => {
                timing = !timing;
                println!("per-query breakdown {}", if timing { "on" } else { "off" });
                continue;
            }
            "\\stats" => {
                println!(
                    "tape: {}\nheaven: {}\nst-cache hit ratio: {:.2}  tile-cache hit ratio: {:.2}\nsimulated time: {:.1} s",
                    heaven.tape_stats(),
                    heaven.stats(),
                    heaven.st_cache_stats().hit_ratio(),
                    heaven.tile_cache_stats().hit_ratio(),
                    heaven.clock().now_s()
                );
                continue;
            }
            "\\metrics" => {
                print!("{}", heaven.metrics().render_text());
                continue;
            }
            _ if line.starts_with("\\prom") => {
                match line.split_whitespace().nth(1) {
                    Some(path) => {
                        match std::fs::write(path, heaven.metrics().render_prometheus()) {
                            Ok(()) => println!("wrote {path}"),
                            Err(e) => println!("cannot write {path}: {e}"),
                        }
                    }
                    None => println!("usage: \\prom <file>"),
                }
                continue;
            }
            "\\collections" => {
                let adb = heaven.arraydb();
                for name in adb.collection_names() {
                    let c = adb.collection(&name).unwrap();
                    println!(
                        "  {name}: {} {}-D objects of {}",
                        c.objects.len(),
                        c.dim,
                        c.cell_type
                    );
                }
                continue;
            }
            _ => {}
        }
        let t0 = heaven.clock().now_s();
        match run(&mut heaven, line) {
            Ok(results) => {
                let dt = heaven.clock().now_s() - t0;
                for r in &results {
                    match &r.value {
                        Value::Scalar(s) => println!("oid {}: {s}", r.oid),
                        Value::Array(a) => println!(
                            "oid {}: array {} ({} cells, {})",
                            r.oid,
                            a.domain(),
                            a.domain().cell_count(),
                            a.cell_type()
                        ),
                    }
                }
                println!("({} result(s), {dt:.1} simulated s)", results.len());
                if timing {
                    if let Some(b) = heaven.last_query_breakdown() {
                        println!("{b}");
                    }
                }
            }
            Err(e) => println!("error: {e}"),
        }
    }
    println!("bye.");
}
