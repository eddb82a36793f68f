//! Human-readable tables and the machine-readable report document.
//!
//! The document (`schema: fv-benchmark/1`) is a host fingerprint plus a
//! flat list of runs; each run is the result object of one process with
//! its workload, seed and trace mode. `fv-benchmark compare` reads two of
//! them.

use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

use fv_telemetry::JsonValue;

use crate::host;
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::runner::RunResult;
use crate::stats::Summary;
use crate::workloads::NAMES;

pub const SCHEMA: &str = "fv-benchmark/1";

fn clock_of(def: &MetricDef) -> &'static str {
    if def.exact {
        "sim"
    } else {
        "host"
    }
}

/// The table one run prints above its result line: every metric by name
/// with its unit and clock and, where the run took it once per pass, the
/// quartiles and count of the per-pass values.
pub fn run_table(workload: &str, seed: u64, trace: bool, r: &RunResult) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== {workload}  seed {seed}  {}  attempted {}  failed {}  {}",
        if trace { "traced" } else { "untraced" },
        r.attempted,
        r.failed,
        if r.correct() { "correct" } else { "INCORRECT" },
    );
    for &(name, value) in &r.metrics {
        let def = crate::metrics::find(name).expect("reported metrics are in the dictionary");
        let _ = write!(
            out,
            "{name:<36} {value:>16.4} {:<5} {:<4}",
            def.unit,
            clock_of(def)
        );
        if let Some(s) = r.samples.get(name) {
            let _ = write!(
                out,
                "  q1 {:.4}  q3 {:.4}  n {}  spread {:.2}%",
                s.q1,
                s.q3,
                s.n,
                s.spread() * 100.0
            );
        }
        out.push('\n');
    }
    for p in &r.problems {
        let _ = writeln!(out, "problem: {p}");
    }
    out
}

fn summary_json(s: &Summary) -> JsonValue {
    JsonValue::obj([
        ("n", JsonValue::UInt(s.n as u64)),
        ("q1", JsonValue::Num(s.q1)),
        ("median", JsonValue::Num(s.median)),
        ("q3", JsonValue::Num(s.q3)),
        ("min", JsonValue::Num(s.min)),
        ("max", JsonValue::Num(s.max)),
    ])
}

/// Per-pass spreads of a run, keyed by metric.
pub fn samples_json(r: &RunResult) -> JsonValue {
    JsonValue::obj(r.samples.iter().map(|(&name, s)| (name, summary_json(s))))
}

pub struct AllArgs<'a> {
    pub workload: Option<&'a str>,
    pub seeds: &'a [u64],
    pub repeat: usize,
    pub seconds: Option<f64>,
    pub smoke: bool,
    pub out: Option<&'a str>,
}

/// Runs `fv-benchmark --workload .. --trace ..` in a child process and
/// returns its result object, echoing everything above it.
fn child(workload: &str, seed: u64, trace: bool, a: &AllArgs<'_>) -> Result<JsonValue, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }, "--detail"])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if let Some(s) = a.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if a.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    let (table, last) = text
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", text.trim_end()));
    println!("{table}");
    if !output.status.success() {
        return Err(format!("{workload}: exited with {}", output.status));
    }
    JsonValue::parse(last).map_err(|e| format!("{workload}: result line is not JSON: {e}"))
}

/// Names, order and units of a result's metrics against the dictionary.
fn schema_errors(result: &JsonValue, trace: bool) -> Vec<String> {
    let defs: &[MetricDef] = if trace { &PER_LAYER } else { &END_TO_END };
    let Some(JsonValue::Obj(metrics)) = result.get("metrics") else {
        return vec!["no metrics object".to_owned()];
    };
    let mut errors = Vec::new();
    if metrics.len() != defs.len() {
        errors.push(format!(
            "{} metrics, expected {}",
            metrics.len(),
            defs.len()
        ));
    }
    for ((name, m), def) in metrics.iter().zip(defs) {
        let unit = m.get("unit").and_then(JsonValue::as_str);
        let value = m.get("value").and_then(JsonValue::as_f64);
        if name != def.name || unit != Some(def.unit) || !value.is_some_and(f64::is_finite) {
            errors.push(format!(
                "metric {name:?} ({unit:?}, {value:?}) where {} [{}] belongs",
                def.name, def.unit
            ));
        }
    }
    for key in ["correct", "attempted", "failed"] {
        if result.get(key).is_none() {
            errors.push(format!("no {key:?} key"));
        }
    }
    errors
}

fn fingerprint() -> JsonValue {
    JsonValue::obj([
        ("nproc", JsonValue::UInt(host::nproc() as u64)),
        ("cpu", JsonValue::Str(host::cpu_model())),
        (
            "rustc",
            JsonValue::Str(host::tool_line("rustc", &["--version"])),
        ),
        (
            "commit",
            JsonValue::Str(host::tool_line("git", &["rev-parse", "HEAD"])),
        ),
        ("profile", JsonValue::Str("release".to_owned())),
    ])
}

/// Every run in `doc` of `workload` in trace mode `trace`.
pub fn runs_of<'a>(
    doc: &'a JsonValue,
    workload: &'a str,
    trace: bool,
) -> impl Iterator<Item = &'a JsonValue> {
    doc.get("runs")
        .and_then(JsonValue::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(move |r| {
            r.get("workload").and_then(JsonValue::as_str) == Some(workload)
                && r.get("trace").and_then(JsonValue::as_u64) == Some(u64::from(trace))
        })
}

pub fn metric_value(run: &JsonValue, name: &str) -> Option<f64> {
    run.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// What the closing table shows for one metric: the figure itself (one
/// run's value, or the median over several runs) and the samples behind
/// it — the runs, or for a single run its passes where it recorded them.
struct Row {
    value: f64,
    behind: Option<(Summary, &'static str)>,
}

fn row(runs: &[&JsonValue], name: &str) -> Option<Row> {
    let values: Vec<f64> = runs.iter().filter_map(|r| metric_value(r, name)).collect();
    if let ([run], [value]) = (runs, values.as_slice()) {
        let passes = run.get("samples").and_then(|s| s.get(name)).and_then(|s| {
            let f = |k: &str| s.get(k).and_then(JsonValue::as_f64);
            Some(Summary {
                n: s.get("n").and_then(JsonValue::as_u64)? as usize,
                q1: f("q1")?,
                median: f("median")?,
                q3: f("q3")?,
                min: f("min")?,
                max: f("max")?,
            })
        });
        return Some(Row {
            value: *value,
            behind: passes.map(|s| (s, "passes")),
        });
    }
    let s = Summary::of(&values)?;
    Some(Row {
        value: s.median,
        behind: Some((s, "runs")),
    })
}

/// The closing table: every metric by name with unit, clock, value and
/// the median, quartiles and count of the samples behind it, one block
/// per workload.
fn summary_table(doc: &JsonValue, workloads: &[&str]) -> String {
    let mut out = String::new();
    for &w in workloads {
        let _ = writeln!(out, "\n=== {w}");
        let _ = writeln!(
            out,
            "{:<36} {:<5} {:<4} {:>16} {:>16} {:>16} {:>16} {:>4} over",
            "metric", "unit", "clk", "value", "median", "q1", "q3", "n"
        );
        for (trace, defs) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let runs: Vec<&JsonValue> = runs_of(doc, w, trace).collect();
            for def in defs {
                let Some(r) = row(&runs, def.name) else {
                    continue;
                };
                let _ = write!(
                    out,
                    "{:<36} {:<5} {:<4} {:>16.4}",
                    def.name,
                    def.unit,
                    clock_of(def),
                    r.value
                );
                if let Some((s, over)) = r.behind {
                    let _ = write!(
                        out,
                        " {:>16.4} {:>16.4} {:>16.4} {:>4} {over}",
                        s.median, s.q1, s.q3, s.n
                    );
                }
                out.push('\n');
            }
        }
    }
    out
}

/// The one-command mode: every workload, each run in its own process.
pub fn all(a: &AllArgs<'_>) -> ExitCode {
    let workloads: Vec<&str> = match a.workload {
        Some(w) if NAMES.contains(&w) => vec![w],
        Some(w) => {
            eprintln!("fv-benchmark: unknown workload {w:?}; one of {NAMES:?}");
            return ExitCode::from(2);
        }
        None => NAMES.to_vec(),
    };
    let mut runs = Vec::new();
    let mut failures = Vec::new();
    for _ in 0..a.repeat {
        for &seed in a.seeds {
            for &w in &workloads {
                for trace in [false, true] {
                    let mut result = match child(w, seed, trace, a) {
                        Ok(r) => r,
                        Err(e) => {
                            failures.push(e);
                            continue;
                        }
                    };
                    for e in schema_errors(&result, trace) {
                        failures.push(format!("{w} (trace {}): {e}", u8::from(trace)));
                    }
                    let correct = result.get("correct") == Some(&JsonValue::Bool(true));
                    // --smoke checks names, units and schema only: at 1/50
                    // size the fidelity checks have nothing to stand on.
                    if !correct && !a.smoke {
                        failures.push(format!("{w} (trace {}): incorrect", u8::from(trace)));
                    }
                    if let JsonValue::Obj(pairs) = &mut result {
                        pairs.splice(
                            0..0,
                            [
                                ("workload".to_owned(), JsonValue::Str(w.to_owned())),
                                ("seed".to_owned(), JsonValue::UInt(seed)),
                                ("trace".to_owned(), JsonValue::UInt(u64::from(trace))),
                            ],
                        );
                    }
                    runs.push(result);
                }
            }
        }
    }

    // Appending to an existing document is how interleaved A/A sets are
    // collected: alternate `--out a.json` and `--out b.json`.
    if let Some(path) = a.out {
        if let Ok(text) = std::fs::read_to_string(path) {
            match JsonValue::parse(&text) {
                Ok(JsonValue::Obj(pairs)) => {
                    let old = pairs.into_iter().find(|(k, _)| k == "runs");
                    if let Some((_, JsonValue::Arr(mut old))) = old {
                        old.append(&mut runs);
                        runs = old;
                    }
                }
                _ => failures.push(format!("{path}: exists but is not a report document")),
            }
        }
    }
    let doc = JsonValue::obj([
        ("schema", JsonValue::Str(SCHEMA.to_owned())),
        ("host", fingerprint()),
        ("smoke", JsonValue::Bool(a.smoke)),
        ("runs", JsonValue::Arr(runs)),
    ]);
    print!("{}", summary_table(&doc, &workloads));
    println!(
        "\nhost-clock metrics are wall time of this process; sim-clock metrics are simulated \
         time or counts and repeat exactly (wallclock_2t excepted: it runs on the wall clock)"
    );
    if let Some(path) = a.out {
        if let Err(e) = std::fs::write(path, doc.to_pretty()) {
            failures.push(format!("cannot write {path}: {e}"));
        }
    }
    for f in &failures {
        eprintln!("FAILED: {f}");
    }
    println!("{}", doc.to_compact());
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
