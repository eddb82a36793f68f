//! `fv-benchmark` — whole-path packets per wall-second on five
//! workloads, with a per-layer budget that sums back to it.
//!
//! ```text
//! fv-benchmark --workload W --seed N --seconds S --trace 0|1
//!     one run of one workload in this process; the last line of output
//!     is the result object {correct, attempted, failed, metrics}
//!     (--trace 0: end-to-end metrics, --trace 1: per-layer metrics)
//! fv-benchmark [--workload W] [--seed N | --seeds A,B] [--repeat K]
//!              [--seconds S] [--smoke] [--out FILE]
//!     every workload (or W), each run in its own process, untraced then
//!     traced; prints every metric by name with unit, median, quartiles
//!     and sample count, then one JSON document; exits non-zero when an
//!     output check fails (--smoke: 1/50 size, schema check only)
//! fv-benchmark compare A.json B.json [--bounds BENCHMARK.json]
//!     applies the bounds per metric x workload to two such documents
//! ```
//!
//! See `benchmark/README.md` for the metric and workload dictionary.

mod compare;
mod host;
mod metrics;
mod report;
mod runner;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use fv_telemetry::JsonValue;

use crate::workloads::Params;

/// Measured seconds per run when the command line does not say
/// (`run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 24.0;
/// `--smoke`: pass size divisor and seconds per run.
const SMOKE_SHRINK: u64 = 50;
const SMOKE_SECONDS: f64 = 0.05;

#[derive(Debug, Default)]
struct Args {
    positional: Vec<String>,
    workload: Option<String>,
    seeds: Vec<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    detail: bool,
    repeat: usize,
    out: Option<String>,
    bounds: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        repeat: 1,
        ..Args::default()
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        let bad = |name: &str, v: &str| format!("{name}: cannot read {v:?}");
        match a.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" | "--seeds" => {
                for part in value("--seed")?.split(',') {
                    args.seeds
                        .push(part.parse().map_err(|_| bad("--seed", part))?);
                }
            }
            "--seconds" => {
                let v = value("--seconds")?;
                let s: f64 = v.parse().map_err(|_| bad("--seconds", &v))?;
                if !s.is_finite() || s <= 0.0 {
                    return Err(bad("--seconds", &v));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad("--trace", v)),
                });
            }
            "--repeat" => {
                let v = value("--repeat")?;
                args.repeat = v.parse().map_err(|_| bad("--repeat", &v))?;
            }
            "--out" => args.out = Some(value("--out")?),
            "--bounds" => args.bounds = Some(value("--bounds")?),
            "--smoke" => args.smoke = true,
            "--detail" => args.detail = true,
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => args.positional.push(a),
        }
    }
    Ok(args)
}

/// One run of one workload in this process.
fn single(args: &Args, workload: &str, trace: bool) -> ExitCode {
    let params = Params {
        seed: args.seeds.first().copied().unwrap_or(1),
        shrink: if args.smoke { SMOKE_SHRINK } else { 1 },
    };
    let seconds = args.seconds.unwrap_or(if args.smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    let result = match runner::run(workload, params, seconds, trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fv-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    print!(
        "{}",
        report::run_table(workload, params.seed, trace, &result)
    );
    let mut line = result.to_json();
    if args.detail {
        if let JsonValue::Obj(pairs) = &mut line {
            pairs.push(("samples".to_owned(), report::samples_json(&result)));
            pairs.push((
                "problems".to_owned(),
                JsonValue::arr(result.problems.iter().cloned().map(JsonValue::Str)),
            ));
        }
    }
    println!("{}", line.to_compact());
    // The result object carries the verdict; a wrong result is a result,
    // not a crash.
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fv-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match (args.positional.first().map(String::as_str), args.trace) {
        (Some("compare"), _) => match args.positional.as_slice() {
            [_, a, b] => compare::main(a, b, args.bounds.as_deref().unwrap_or("BENCHMARK.json")),
            _ => {
                eprintln!("usage: fv-benchmark compare A.json B.json [--bounds BENCHMARK.json]");
                ExitCode::from(2)
            }
        },
        (Some(other), _) => {
            eprintln!("fv-benchmark: unknown command {other:?}");
            ExitCode::from(2)
        }
        (None, Some(trace)) => match &args.workload {
            Some(w) => single(&args, w, trace),
            None => {
                eprintln!("fv-benchmark: --trace needs --workload");
                ExitCode::from(2)
            }
        },
        (None, None) => report::all(&report::AllArgs {
            workload: args.workload.as_deref(),
            seeds: if args.seeds.is_empty() {
                &[1]
            } else {
                &args.seeds
            },
            repeat: args.repeat.max(1),
            seconds: args.seconds,
            smoke: args.smoke,
            out: args.out.as_deref(),
        }),
    }
}
