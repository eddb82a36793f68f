//! `fv-benchmark compare A.json B.json` — B against A under the bounds of
//! `BENCHMARK.json`, per end-to-end metric and workload.
//!
//! A pairing is *unresolved*, not *unchanged*, when either side's
//! run-to-run spread (inter-quartile range over median) is wider than the
//! bound, or when the calibration kernel (`host.calib_ns`) moved by more
//! than 5 % between the sides: the host changed, so the comparison says
//! nothing about the code. Simulated metrics are held to a different
//! standard: for the same seed they must be bit-identical on both sides.

use std::collections::BTreeMap;
use std::process::ExitCode;

use fv_telemetry::JsonValue;

use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::report::{metric_value, runs_of, SCHEMA};
use crate::stats::Summary;
use crate::workloads::NAMES;

/// Calibration drift between sides beyond which nothing is resolved.
const CALIB_TOLERANCE: f64 = 0.05;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Unchanged,
    Improved,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// The verdict on one metric x workload pairing.
pub fn judge(a: &Summary, b: &Summary, better: Better, bound: f64, calib_moved: bool) -> Verdict {
    if calib_moved || a.spread() > bound || b.spread() > bound {
        return Verdict::Unresolved;
    }
    let w = worse_by(a.median, b.median, better);
    if w > bound {
        Verdict::Regressed
    } else if w < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn load(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = JsonValue::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("schema").and_then(JsonValue::as_str) != Some(SCHEMA) {
        return Err(format!("{path}: not a {SCHEMA} document"));
    }
    Ok(doc)
}

/// `end_to_end` bounds of `BENCHMARK.json`, by metric name.
fn load_bounds(path: &str) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = JsonValue::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let listed = doc
        .get("end_to_end")
        .and_then(JsonValue::as_arr)
        .ok_or(format!("{path}: no end_to_end list"))?;
    listed
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(JsonValue::as_str);
            let bound = m.get("bound").and_then(JsonValue::as_f64);
            name.zip(bound)
                .map(|(n, b)| (n.to_owned(), b))
                .ok_or(format!("{path}: end_to_end entry without name and bound"))
        })
        .collect()
}

fn summary_of(doc: &JsonValue, workload: &str, trace: bool, metric: &str) -> Option<Summary> {
    let values: Vec<f64> = runs_of(doc, workload, trace)
        .filter_map(|r| metric_value(r, metric))
        .collect();
    Summary::of(&values)
}

/// Values of an exact metric by seed; more than one distinct value for a
/// seed is already a failure of repeatability.
fn by_seed(doc: &JsonValue, workload: &str, metric: &str) -> BTreeMap<u64, Vec<u64>> {
    let mut out: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for r in runs_of(doc, workload, true) {
        let seed = r.get("seed").and_then(JsonValue::as_u64).unwrap_or(0);
        if let Some(v) = metric_value(r, metric) {
            let bits = out.entry(seed).or_default();
            if !bits.contains(&v.to_bits()) {
                bits.push(v.to_bits());
            }
        }
    }
    out
}

pub fn main(a_path: &str, b_path: &str, bounds_path: &str) -> ExitCode {
    let loaded = (|| Ok::<_, String>((load(a_path)?, load(b_path)?, load_bounds(bounds_path)?)))();
    let (a, b, bounds) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("fv-benchmark compare: {e}");
            return ExitCode::from(2);
        }
    };

    let mut regressed = 0;
    let mut unresolved = 0;
    let mut differing = 0;
    println!(
        "{:<16} {:<16} {:<5} {:>38} {:>38} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "unit",
        "A median [q1, q3] n",
        "B median [q1, q3] n",
        "worse",
        "bound"
    );
    for w in NAMES {
        let calib = (
            summary_of(&a, w, true, "host.calib_ns"),
            summary_of(&b, w, true, "host.calib_ns"),
        );
        let calib_moved = match calib {
            (Some(ca), Some(cb)) => (cb.median - ca.median).abs() / ca.median > CALIB_TOLERANCE,
            // Without traced runs there is no canary; judge on spread alone.
            _ => false,
        };
        for def in &END_TO_END {
            let (Some(sa), Some(sb)) = (
                summary_of(&a, w, false, def.name),
                summary_of(&b, w, false, def.name),
            ) else {
                continue;
            };
            let Some(&bound) = bounds.get(def.name) else {
                eprintln!("fv-benchmark compare: no bound for {}", def.name);
                return ExitCode::from(2);
            };
            let verdict = judge(&sa, &sb, def.better, bound, calib_moved);
            regressed += usize::from(verdict == Verdict::Regressed);
            unresolved += usize::from(verdict == Verdict::Unresolved);
            let side = |s: &Summary| format!("{:.4} [{:.4}, {:.4}] {}", s.median, s.q1, s.q3, s.n);
            println!(
                "{:<16} {:<16} {:<5} {:>38} {:>38} {:>+7.2}% {:>5.0}%  {}{}",
                w,
                def.name,
                def.unit,
                side(&sa),
                side(&sb),
                worse_by(sa.median, sb.median, def.better) * 100.0,
                bound * 100.0,
                verdict.as_str(),
                if calib_moved {
                    " (host.calib_ns moved)"
                } else {
                    ""
                },
            );
        }
        // wallclock_2t runs on the wall clock: nothing there is exact.
        if w == "wallclock_2t" {
            continue;
        }
        for def in PER_LAYER.iter().filter(|d| d.exact) {
            let (va, vb) = (by_seed(&a, w, def.name), by_seed(&b, w, def.name));
            for (seed, bits_a) in &va {
                let Some(bits_b) = vb.get(seed) else { continue };
                if bits_a.len() != 1 || bits_a != bits_b {
                    differing += 1;
                    let show = |bits: &[u64]| {
                        bits.iter()
                            .map(|&x| f64::from_bits(x).to_string())
                            .collect::<Vec<_>>()
                            .join(" ")
                    };
                    println!(
                        "{w:<16} {:<36} seed {seed}: DIFFERS  A {{{}}}  B {{{}}}",
                        def.name,
                        show(bits_a),
                        show(bits_b)
                    );
                }
            }
        }
    }
    println!(
        "\n{regressed} regressed, {unresolved} unresolved, {differing} simulated metric x seed \
         pairings differing (unresolved means the spread or the host, not the code, decided)"
    );
    if regressed > 0 || differing > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(values: &[f64]) -> Summary {
        Summary::of(values).unwrap()
    }

    #[test]
    fn direction_decides_what_worse_means() {
        assert!((worse_by(100.0, 110.0, Better::Lower) - 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 110.0, Better::Higher) + 0.10).abs() < 1e-12);
        assert_eq!(worse_by(0.0, 5.0, Better::Lower), 0.0);
    }

    #[test]
    fn verdicts() {
        let tight = s(&[100.0, 100.5, 101.0, 100.2, 100.8]);
        let slower = s(&[112.0, 112.5, 113.0, 112.2, 112.8]);
        let noisy = s(&[80.0, 100.0, 120.0, 90.0, 110.0]);
        let j = |a, b, better| judge(a, b, better, 0.07, false);
        assert_eq!(j(&tight, &tight, Better::Lower), Verdict::Unchanged);
        assert_eq!(j(&tight, &slower, Better::Lower), Verdict::Regressed);
        assert_eq!(j(&tight, &slower, Better::Higher), Verdict::Improved);
        assert_eq!(j(&slower, &tight, Better::Lower), Verdict::Improved);
        // Spread wider than the bound: unresolved, never unchanged.
        assert_eq!(j(&tight, &noisy, Better::Lower), Verdict::Unresolved);
        assert_eq!(j(&noisy, &tight, Better::Lower), Verdict::Unresolved);
        // The host moved between the sides.
        assert_eq!(
            judge(&tight, &tight, Better::Lower, 0.07, true),
            Verdict::Unresolved
        );
    }
}
