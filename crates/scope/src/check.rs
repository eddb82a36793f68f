//! Declarative SLO assertions over sampler output and snapshots.
//!
//! A [`Slo`] states an invariant the run must uphold — a class's achieved
//! rate stays within a band of its configured rate over a steady-state
//! window, the sum of several rates does, a rate is back in its band after
//! a fault clears. [`evaluate`] checks every assertion against a
//! [`TimeSampler`]'s delta series, producing a [`CheckReport`] that
//! renders for the terminal (`fv check`) or as JSON, and that tests assert
//! on directly.

use fv_telemetry::json::{JsonValue, ToJson};
use sim_core::time::Nanos;

use crate::sampler::TimeSampler;

/// One declarative assertion about a run.
#[derive(Debug, Clone)]
pub enum Slo {
    /// The windowed rate of counter `series` (in units/s — bits/s for a
    /// `*_bits` counter) lies in `[min, max]`.
    RateBetween {
        /// Human-readable assertion name.
        name: String,
        /// Sampled counter holding the quantity.
        series: String,
        /// Inclusive lower bound (units per second).
        min: f64,
        /// Inclusive upper bound (units per second).
        max: f64,
    },
    /// The *summed* windowed rate of several counters lies in `[min, max]`
    /// (e.g. all leaf tx_bits against the root's configured rate).
    SumRateBetween {
        /// Human-readable assertion name.
        name: String,
        /// Sampled counters whose rates are summed.
        series: Vec<String>,
        /// Inclusive lower bound (units per second).
        min: f64,
        /// Inclusive upper bound (units per second).
        max: f64,
    },
    /// After a fault clears at `clear`, the windowed rate of `series`
    /// measured over `[clear + within, window end]` is back in
    /// `[min, max]`. Fails when the recovery window is empty or the
    /// series has no samples in it — a run that ends mid-recovery has
    /// not demonstrated recovery.
    RateRecovers {
        /// Human-readable assertion name.
        name: String,
        /// Sampled counter holding the quantity.
        series: String,
        /// Inclusive lower bound (units per second).
        min: f64,
        /// Inclusive upper bound (units per second).
        max: f64,
        /// Virtual time at which the fault window ended.
        clear: Nanos,
        /// Settling time granted before the recovery window opens.
        within: Nanos,
    },
}

/// The outcome of one [`Slo`].
#[derive(Debug, Clone)]
pub struct SloResult {
    /// The assertion's display name.
    pub name: String,
    /// Whether the invariant held.
    pub passed: bool,
    /// Measured-vs-bound detail for the report line.
    pub detail: String,
}

/// Outcomes of every evaluated [`Slo`].
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// The window the rate assertions were measured over.
    pub window: (Nanos, Nanos),
    /// Per-assertion outcomes, in evaluation order.
    pub results: Vec<SloResult>,
}

impl CheckReport {
    /// Whether every assertion held.
    pub fn passed(&self) -> bool {
        self.results.iter().all(|r| r.passed)
    }

    /// Count of failed assertions.
    pub fn failures(&self) -> usize {
        self.results.iter().filter(|r| !r.passed).count()
    }

    /// Renders one `PASS`/`FAIL` line per assertion plus a verdict line.
    pub fn render(&self) -> String {
        let mut out = format!(
            "conformance over [{} us, {} us]\n",
            self.window.0.as_nanos() / 1_000,
            self.window.1.as_nanos() / 1_000
        );
        for r in &self.results {
            out.push_str(&format!(
                "  {}  {:<40} {}\n",
                if r.passed { "PASS" } else { "FAIL" },
                r.name,
                r.detail
            ));
        }
        let failures = self.failures();
        if failures == 0 {
            out.push_str(&format!(
                "conformance: {} assertions passed\n",
                self.results.len()
            ));
        } else {
            out.push_str(&format!(
                "conformance: {failures} of {} assertions FAILED\n",
                self.results.len()
            ));
        }
        out
    }
}

impl ToJson for SloResult {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("name", JsonValue::Str(self.name.clone())),
            ("passed", JsonValue::Bool(self.passed)),
            ("detail", JsonValue::Str(self.detail.clone())),
        ])
    }
}

impl ToJson for CheckReport {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("window_from_ns", JsonValue::UInt(self.window.0.as_nanos())),
            ("window_to_ns", JsonValue::UInt(self.window.1.as_nanos())),
            ("passed", JsonValue::Bool(self.passed())),
            ("results", self.results.to_json()),
        ])
    }
}

fn fmt_rate(v: f64) -> String {
    if v.is_infinite() {
        "unbounded".to_owned()
    } else if v >= 1e9 {
        format!("{:.2}G", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.2}k", v / 1e3)
    } else {
        format!("{v:.0}")
    }
}

/// Evaluates `slos` against the sampler's series over `window`. An
/// assertion fails (rather than passing vacuously) when its series has no
/// samples in the window.
pub fn evaluate(slos: &[Slo], sampler: &TimeSampler, window: (Nanos, Nanos)) -> CheckReport {
    let (from, to) = window;
    let results = slos
        .iter()
        .map(|slo| match slo {
            Slo::RateBetween {
                name,
                series,
                min,
                max,
            } => match sampler.window_rate(series, from, to) {
                Some(rate) => SloResult {
                    name: name.clone(),
                    passed: (*min..=*max).contains(&rate),
                    detail: format!(
                        "measured {}/s, want [{}/s, {}/s]",
                        fmt_rate(rate),
                        fmt_rate(*min),
                        fmt_rate(*max)
                    ),
                },
                None => SloResult {
                    name: name.clone(),
                    passed: false,
                    detail: format!("series {series:?} has no samples in the window"),
                },
            },
            Slo::SumRateBetween {
                name,
                series,
                min,
                max,
            } => {
                let rates: Vec<Option<f64>> = series
                    .iter()
                    .map(|s| sampler.window_rate(s, from, to))
                    .collect();
                if rates.iter().all(Option::is_none) {
                    SloResult {
                        name: name.clone(),
                        passed: false,
                        detail: "no series has samples in the window".to_owned(),
                    }
                } else {
                    let sum: f64 = rates.into_iter().flatten().sum();
                    SloResult {
                        name: name.clone(),
                        passed: (*min..=*max).contains(&sum),
                        detail: format!(
                            "measured {}/s, want [{}/s, {}/s]",
                            fmt_rate(sum),
                            fmt_rate(*min),
                            fmt_rate(*max)
                        ),
                    }
                }
            }
            Slo::RateRecovers {
                name,
                series,
                min,
                max,
                clear,
                within,
            } => {
                let open = *clear + *within;
                if open >= to {
                    SloResult {
                        name: name.clone(),
                        passed: false,
                        detail: format!(
                            "recovery window empty: opens at {} us, run ends at {} us",
                            open.as_nanos() / 1_000,
                            to.as_nanos() / 1_000
                        ),
                    }
                } else {
                    match sampler.window_rate(series, open, to) {
                        Some(rate) => SloResult {
                            name: name.clone(),
                            passed: (*min..=*max).contains(&rate),
                            detail: format!(
                                "recovered to {}/s over [{} us, {} us], want [{}/s, {}/s]",
                                fmt_rate(rate),
                                open.as_nanos() / 1_000,
                                to.as_nanos() / 1_000,
                                fmt_rate(*min),
                                fmt_rate(*max)
                            ),
                        },
                        None => SloResult {
                            name: name.clone(),
                            passed: false,
                            detail: format!("series {series:?} has no samples after recovery"),
                        },
                    }
                }
            }
        })
        .collect();
    CheckReport { window, results }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::SamplerConfig;
    use fv_telemetry::Registry;

    fn us(n: u64) -> Nanos {
        Nanos::from_micros(n)
    }

    /// 8000 bits every 10 us on `bits` = 800 Mbit/s steady.
    fn steady_sampler(reg: &Registry) -> TimeSampler {
        let c = reg.counter("bits");
        let mut s = TimeSampler::new(reg, SamplerConfig::default().with_interval(us(10)));
        for i in 1..=10u64 {
            c.add(8_000);
            s.advance_to(us(i * 10));
        }
        s
    }

    #[test]
    fn rate_within_band_passes_and_outside_fails() {
        let reg = Registry::new();
        let s = steady_sampler(&reg);
        let slos = [
            Slo::RateBetween {
                name: "in-band".into(),
                series: "bits".into(),
                min: 7.6e8,
                max: 8.4e8,
            },
            Slo::RateBetween {
                name: "too-high-band".into(),
                series: "bits".into(),
                min: 9e8,
                max: 1e9,
            },
        ];
        let report = evaluate(&slos, &s, (us(50), us(100)));
        assert!(report.results[0].passed, "{}", report.render());
        assert!(!report.results[1].passed);
        assert!(!report.passed());
        assert_eq!(report.failures(), 1);
        assert!(report.render().contains("FAIL"));
    }

    #[test]
    fn missing_series_fails_rather_than_passing_vacuously() {
        let reg = Registry::new();
        let s = steady_sampler(&reg);
        let slos = [Slo::RateBetween {
            name: "ghost".into(),
            series: "no.such.counter".into(),
            min: 0.0,
            max: 1e12,
        }];
        let report = evaluate(&slos, &s, (us(50), us(100)));
        assert!(!report.passed());
    }

    #[test]
    fn sum_rate_adds_series() {
        let reg = Registry::new();
        let a = reg.counter("a.bits");
        let b = reg.counter("b.bits");
        let mut s = TimeSampler::new(&reg, SamplerConfig::default().with_interval(us(10)));
        for i in 1..=10u64 {
            a.add(4_000);
            b.add(4_000);
            s.advance_to(us(i * 10));
        }
        let slos = [Slo::SumRateBetween {
            name: "total".into(),
            series: vec!["a.bits".into(), "b.bits".into()],
            min: 7.6e8,
            max: 8.4e8,
        }];
        let report = evaluate(&slos, &s, (us(50), us(100)));
        assert!(report.passed(), "{}", report.render());
    }

    #[test]
    fn rate_recovers_measures_only_the_post_settle_window() {
        let reg = Registry::new();
        let c = reg.counter("bits");
        let mut s = TimeSampler::new(&reg, SamplerConfig::default().with_interval(us(10)));
        // Degraded through 50 us (no traffic), full rate afterwards.
        for i in 1..=10u64 {
            if i > 5 {
                c.add(8_000);
            }
            s.advance_to(us(i * 10));
        }
        let slos = [
            Slo::RateRecovers {
                name: "recovers".into(),
                series: "bits".into(),
                min: 7.6e8,
                max: 8.4e8,
                clear: us(50),
                within: us(10),
            },
            Slo::RateRecovers {
                name: "window-empty".into(),
                series: "bits".into(),
                min: 0.0,
                max: 1e12,
                clear: us(95),
                within: us(10),
            },
            Slo::RateRecovers {
                name: "ghost-series".into(),
                series: "no.such".into(),
                min: 0.0,
                max: 1e12,
                clear: us(50),
                within: us(10),
            },
        ];
        let report = evaluate(&slos, &s, (us(0), us(100)));
        assert!(report.results[0].passed, "{}", report.render());
        assert!(!report.results[1].passed, "empty recovery window must fail");
        assert!(!report.results[2].passed, "absent series must fail");
    }

    #[test]
    fn report_json_shape() {
        let reg = Registry::new();
        let s = steady_sampler(&reg);
        let slos = [Slo::RateBetween {
            name: "z".into(),
            series: "bits".into(),
            min: 0.0,
            max: 1e12,
        }];
        let report = evaluate(&slos, &s, (us(50), us(100)));
        let doc = JsonValue::parse(&report.to_json().to_pretty()).unwrap();
        assert_eq!(doc.get("passed"), Some(&JsonValue::Bool(true)));
        let results = doc.get("results").and_then(|r| r.as_arr()).unwrap();
        assert_eq!(results[0].get("name").and_then(|v| v.as_str()), Some("z"));
    }
}
