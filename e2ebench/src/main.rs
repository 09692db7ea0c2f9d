//! End-to-end, two-clock benchmark of the HEAVEN reproduction.
//!
//! ```text
//! heaven-e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload generates its inputs from `--seed` (not timed), sets the
//! system up through HEAVEN's public entry points (timed as `setup_s`),
//! then runs a closed loop of requests for `--seconds`, checking every
//! result against the benchmark's own copy of the input. Both clocks are
//! measured: host time (`std::time::Instant`) and the simulated
//! `SimClock` that prices the tape library and disks.
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` reports the
//! per-layer metrics instead: counter deltas over the deterministic
//! request prefix, and host self time per layer from a second, traced
//! run of the same prefix on a rebuilt system (spans recorded in memory
//! and written to `.bench_out/` when the run ends).
//!
//! The human-readable report goes to stderr; the last line of stdout is
//! the JSON result. See `WORKLOADS.md` for what each workload exercises.

mod cold;
mod counters;
mod layers;
mod phase;
mod report;
mod sessions;
mod stats;
mod sys;
mod trace;
mod warm;
mod world;
mod write;

use report::{json_line, print_table, Values, END_TO_END, PER_LAYER};
use std::process::ExitCode;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds {seconds}: expected 0 < s <= 600"));
        }
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
        })
    }
}

/// The outcome of one run.
pub struct RunOut {
    pub attempted: u64,
    pub failed: u64,
    /// Self-checks of the benchmark (name, passed).
    pub checks: Vec<(&'static str, bool)>,
    pub values: Values,
}

impl RunOut {
    pub fn new(attempted: u64, failed: u64) -> RunOut {
        RunOut {
            attempted,
            failed,
            checks: Vec::new(),
            values: Values::new(),
        }
    }

    pub fn check(&mut self, name: &'static str, passed: bool) {
        self.checks.push((name, passed));
    }
}

/// Finish a traced phase: write its spans to `.bench_out/` under the
/// working directory (a failed write is reported and does not fail the
/// run), attribute each request's host time to layers, and check that
/// the layer self times plus the residual sum to it.
pub fn finish_trace(args: &Args, tr: &trace::Tracer, out: &mut RunOut) -> layers::HostLayers {
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    match std::fs::create_dir_all(dir).and_then(|_| tr.write_jsonl(&path)) {
        Ok(()) => eprintln!("wrote {} spans to {}", tr.spans().len(), path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
    let layers = layers::HostLayers::new(trace::attribute(tr.spans()));
    out.check(
        "layer self times plus residual sum to host time",
        layers.unbalanced() == 0,
    );
    layers
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match args.workload.as_str() {
        "archive_write" => write::run(&args),
        "warm_rasql" => warm::run(&args),
        "cold_archive" => cold::run(&args),
        "sessions_mix" => sessions::run(&args),
        w => {
            eprintln!("error: unknown workload {w}");
            return ExitCode::from(2);
        }
    };
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    print_table(&args.workload, names, &out.values);
    for (name, passed) in &out.checks {
        eprintln!("check: {name}: {}", if *passed { "ok" } else { "FAILED" });
    }
    eprintln!(
        "requests: {} attempted, {} failed the oracle or errored",
        out.attempted, out.failed
    );
    let correct = out.failed == 0 && out.attempted > 0 && out.checks.iter().all(|c| c.1);
    println!(
        "{}",
        json_line(
            correct,
            out.attempted.max(1),
            out.failed,
            names,
            &out.values
        )
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_command_line_arguments() {
        let a = parse("--workload warm_rasql --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.trace),
            ("warm_rasql", 7, true)
        );
        assert_eq!(a.seconds, 10.0);
        assert!(parse("--seed 7").is_err());
        assert!(parse("--workload w --trace 2").is_err());
        assert!(parse("--workload w --seconds 0").is_err());
        assert!(parse("--workload w --bogus 1").is_err());
        assert!(parse("--workload").is_err());
    }
}
