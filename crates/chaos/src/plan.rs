//! Declarative fault plans: what to break, when, and for how long.
//!
//! A [`FaultPlan`] is parsed from a small command language mirroring the
//! `fv` front end's `tc`-style dialect:
//!
//! ```text
//! chaos seed 42
//! chaos fault wire_flap  at 3ms for 2ms permille 250
//! chaos fault me_stall   at 6ms for 1ms engines 40
//! chaos fault tm_pause   at 2ms for 500us
//! chaos fault tm_drop    at 2ms for 1ms every 3
//! chaos fault lock_slow  at 1ms for 2ms permille 4000
//! chaos fault cpu_burn   at 1ms for 2ms cycles 300
//! chaos fault clock_skew at 4ms for 1ms skew 200us
//! chaos fault host_pause at 3ms for 2ms app 0
//! chaos fault vf_reset   at 3ms for 1ms vf 1
//! chaos fault reconfig   at 5ms for 2ms scale_permille 500
//! ```
//!
//! Every fault is a half-open window `[at, at + for)` on the *virtual*
//! clock. Whether a fault is active is a pure function of the current
//! simulated time, so a plan plus a seed fully determines a run — replay
//! with the same pair and every fault lands on the same packet.

use core::fmt;

use fv_telemetry::json::{JsonValue, ToJson};
use sim_core::time::Nanos;

/// What kind of failure a fault window injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Wire rate degraded to `permille`/1000 of nominal (0 clamps to 1).
    WireFlap {
        /// Remaining wire capacity in permille of the configured rate.
        permille: u64,
    },
    /// The first `engines` micro-engines cannot start new work.
    MeStall {
        /// Number of engines taken offline.
        engines: usize,
    },
    /// The traffic-manager serializer is paused; backlog accumulates.
    TmPause,
    /// Every `every`-th frame offered to the TM is corrupted and dropped.
    TmDrop {
        /// Drop period (1 drops every frame).
        every: u64,
    },
    /// Lock hold times inflated to `permille`/1000 of nominal.
    LockSlow {
        /// Hold-time scale in permille (values above 1000 inflate).
        permille: u64,
    },
    /// Every packet charged `cycles` extra instruction cycles.
    CpuBurn {
        /// Extra cycles per packet.
        cycles: u64,
    },
    /// The scheduler's clock reads `skew` ahead of the NIC clock.
    ClockSkew {
        /// Skew magnitude.
        skew: Nanos,
    },
    /// Host application `app` stops producing (models a GC pause / stall).
    HostPause {
        /// The paused application id.
        app: u16,
    },
    /// Virtual function `vf` is down; its frames die at the host boundary.
    VfReset {
        /// The VF being reset.
        vf: u8,
    },
    /// The policy is hot-reloaded with every rate/ceil scaled by
    /// `scale_permille`/1000, then restored when the window ends.
    Reconfig {
        /// Rate scale in permille applied during the window.
        scale_permille: u64,
    },
}

impl FaultKind {
    /// Stable wire name, as written in plan files.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::WireFlap { .. } => "wire_flap",
            FaultKind::MeStall { .. } => "me_stall",
            FaultKind::TmPause => "tm_pause",
            FaultKind::TmDrop { .. } => "tm_drop",
            FaultKind::LockSlow { .. } => "lock_slow",
            FaultKind::CpuBurn { .. } => "cpu_burn",
            FaultKind::ClockSkew { .. } => "clock_skew",
            FaultKind::HostPause { .. } => "host_pause",
            FaultKind::VfReset { .. } => "vf_reset",
            FaultKind::Reconfig { .. } => "reconfig",
        }
    }

    /// Stable numeric code carried in trace events (`a` field).
    pub fn code(&self) -> u64 {
        match self {
            FaultKind::WireFlap { .. } => 1,
            FaultKind::MeStall { .. } => 2,
            FaultKind::TmPause => 3,
            FaultKind::TmDrop { .. } => 4,
            FaultKind::LockSlow { .. } => 5,
            FaultKind::CpuBurn { .. } => 6,
            FaultKind::ClockSkew { .. } => 7,
            FaultKind::HostPause { .. } => 8,
            FaultKind::VfReset { .. } => 9,
            FaultKind::Reconfig { .. } => 10,
        }
    }
}

/// One scheduled fault: a kind plus its window on the virtual clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// What to inject.
    pub kind: FaultKind,
    /// Window start (inclusive).
    pub at: Nanos,
    /// Window length.
    pub dur: Nanos,
}

impl FaultSpec {
    /// Whether `now` falls inside the half-open window `[at, at + dur)`.
    pub fn active_at(&self, now: Nanos) -> bool {
        now >= self.at && now < self.end()
    }

    /// First instant *after* the fault (exclusive window end); a window
    /// the parser would refuse as past the clock's range ends at its top.
    pub fn end(&self) -> Nanos {
        Nanos::from_nanos(self.at.as_nanos().saturating_add(self.dur.as_nanos()))
    }
}

/// A parse failure, pointing at the offending plan line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePlanError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ParsePlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "plan line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParsePlanError {}

/// A complete fault plan: the replay seed plus every scheduled fault.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Seed for the workload's packet-arrival randomness.
    pub seed: u64,
    /// Scheduled faults, in file order.
    pub faults: Vec<FaultSpec>,
}

/// Controllers track fault activity in a 64-bit mask, so plans are capped.
pub const MAX_FAULTS: usize = 64;

impl FaultPlan {
    /// Parses a plan script. Blank lines and `#` comments are skipped.
    ///
    /// # Errors
    ///
    /// Returns [`ParsePlanError`] naming the first malformed line.
    pub fn parse(script: &str) -> Result<FaultPlan, ParsePlanError> {
        let mut plan = FaultPlan::default();
        for (i, raw) in script.lines().enumerate() {
            let lineno = i + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let err = |msg: String| ParsePlanError { line: lineno, msg };
            let toks: Vec<&str> = line.split_whitespace().collect();
            match toks.as_slice() {
                ["chaos", "seed", v] => {
                    plan.seed = v
                        .parse()
                        .map_err(|_| err(format!("bad seed {v:?}: expected a u64")))?;
                }
                ["chaos", "fault", kind, rest @ ..] => {
                    let spec = parse_fault(kind, rest).map_err(err)?;
                    plan.faults.push(spec);
                    if plan.faults.len() > MAX_FAULTS {
                        return Err(ParsePlanError {
                            line: lineno,
                            msg: format!("too many faults (max {MAX_FAULTS})"),
                        });
                    }
                }
                _ => {
                    return Err(err(format!(
                        "unrecognized command {line:?}: expected \
                         `chaos seed <n>` or `chaos fault <kind> ...`"
                    )))
                }
            }
        }
        Ok(plan)
    }

    /// Scale of the latest-starting `reconfig` fault active at `now`.
    pub fn reconfig_scale_at(&self, now: Nanos) -> Option<u64> {
        self.faults
            .iter()
            .filter(|f| f.active_at(now))
            .filter_map(|f| match f.kind {
                FaultKind::Reconfig { scale_permille } => Some((f.at, scale_permille)),
                _ => None,
            })
            .max_by_key(|&(at, _)| at)
            .map(|(_, s)| s)
    }
}

/// Parses `at <dur> for <dur> [key value ...]` plus the kind's parameters.
fn parse_fault(kind: &str, rest: &[&str]) -> Result<FaultSpec, String> {
    let mut at = None;
    let mut dur = None;
    let mut params: Vec<(&str, &str)> = Vec::new();
    let mut it = rest.iter();
    while let Some(key) = it.next() {
        let Some(val) = it.next() else {
            return Err(format!("dangling key {key:?}: expected a value"));
        };
        match *key {
            "at" => at = Some(parse_duration(val)?),
            "for" => dur = Some(parse_duration(val)?),
            k => params.push((k, val)),
        }
    }
    let at = at.ok_or_else(|| format!("fault {kind:?} missing `at <time>`"))?;
    let dur = dur.ok_or_else(|| format!("fault {kind:?} missing `for <duration>`"))?;
    if dur == Nanos::ZERO {
        return Err(format!("fault {kind:?} has zero duration"));
    }
    let (at_ns, dur_ns) = (at.as_nanos(), dur.as_nanos());
    let Some(end) = at_ns.checked_add(dur_ns) else {
        return Err(format!(
            "fault {kind:?} at {at_ns}ns for {dur_ns}ns {PAST_RANGE}"
        ));
    };

    let one = |name: &str| -> Result<&str, String> {
        match params.as_slice() {
            [(k, v)] if *k == name => Ok(v),
            [] => Err(format!("fault {kind:?} missing `{name} <value>`")),
            other => Err(format!(
                "fault {kind:?} takes only `{name}`; got {:?}",
                other.iter().map(|(k, _)| *k).collect::<Vec<_>>()
            )),
        }
    };
    let parse_u64 = |name: &str| -> Result<u64, String> {
        let v = one(name)?;
        v.parse()
            .map_err(|_| format!("bad {name} {v:?}: expected an integer"))
    };

    let kind = match kind {
        "wire_flap" => FaultKind::WireFlap {
            permille: parse_u64("permille")?,
        },
        "me_stall" => FaultKind::MeStall {
            engines: narrow("engines", parse_u64("engines")?)?,
        },
        "tm_pause" => {
            if let [(k, _), ..] = params.as_slice() {
                return Err(format!("fault \"tm_pause\" takes no parameter {k:?}"));
            }
            FaultKind::TmPause
        }
        "tm_drop" => {
            let every = parse_u64("every")?;
            if every == 0 {
                return Err("bad every 0: must be at least 1".into());
            }
            FaultKind::TmDrop { every }
        }
        "lock_slow" => FaultKind::LockSlow {
            permille: parse_u64("permille")?,
        },
        "cpu_burn" => FaultKind::CpuBurn {
            cycles: parse_u64("cycles")?,
        },
        "clock_skew" => {
            // The scheduler reads `now + skew` for every `now` before `end`.
            let skew = parse_duration(one("skew")?)?.as_nanos();
            end.checked_add(skew)
                .ok_or_else(|| format!("skew {skew}ns at window end {end}ns {PAST_RANGE}"))?;
            FaultKind::ClockSkew {
                skew: Nanos::from_nanos(skew),
            }
        }
        "host_pause" => FaultKind::HostPause {
            app: narrow("app", parse_u64("app")?)?,
        },
        "vf_reset" => FaultKind::VfReset {
            vf: narrow("vf", parse_u64("vf")?)?,
        },
        "reconfig" => {
            let scale_permille = parse_u64("scale_permille")?;
            if scale_permille == 0 {
                return Err("bad scale_permille 0: must be at least 1".into());
            }
            FaultKind::Reconfig { scale_permille }
        }
        other => {
            return Err(format!(
                "unknown fault kind {other:?} (expected wire_flap, me_stall, \
                 tm_pause, tm_drop, lock_slow, cpu_burn, clock_skew, \
                 host_pause, vf_reset or reconfig)"
            ))
        }
    };
    Ok(FaultSpec { kind, at, dur })
}

/// How a parse error says a time does not fit [`Nanos`].
const PAST_RANGE: &str = "runs past the clock's range (18446744073709551615ns)";

/// Narrows parameter `name`, parsed as `n`, to its field's type: a value
/// that does not fit is refused by value, never wrapped.
fn narrow<T: TryFrom<u64>>(name: &str, n: u64) -> Result<T, String> {
    T::try_from(n).map_err(|_| format!("bad {name} {n}: out of range"))
}

/// Parses `250ns` / `100us` / `3ms` / `1s` (integer value, required unit).
fn parse_duration(s: &str) -> Result<Nanos, String> {
    let split = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
    let (num, unit) = s.split_at(split);
    let n: u64 = num
        .parse()
        .map_err(|_| format!("bad duration {s:?}: expected <int><ns|us|ms|s>"))?;
    let scale = match unit {
        "ns" => 1,
        "us" => 1_000,
        "ms" => 1_000_000,
        "s" => 1_000_000_000,
        _ => return Err(format!("bad duration {s:?}: expected <int><ns|us|ms|s>")),
    };
    let ns = n
        .checked_mul(scale)
        .ok_or_else(|| format!("duration {s:?} {PAST_RANGE}"));
    ns.map(Nanos::from_nanos)
}

impl ToJson for FaultSpec {
    fn to_json(&self) -> JsonValue {
        let mut pairs: Vec<(&str, JsonValue)> = vec![
            ("kind", JsonValue::Str(self.kind.name().into())),
            ("at_ns", JsonValue::UInt(self.at.as_nanos())),
            ("dur_ns", JsonValue::UInt(self.dur.as_nanos())),
        ];
        match self.kind {
            FaultKind::WireFlap { permille } | FaultKind::LockSlow { permille } => {
                pairs.push(("permille", JsonValue::UInt(permille)));
            }
            FaultKind::MeStall { engines } => {
                pairs.push(("engines", JsonValue::UInt(engines as u64)));
            }
            FaultKind::TmDrop { every } => pairs.push(("every", JsonValue::UInt(every))),
            FaultKind::CpuBurn { cycles } => pairs.push(("cycles", JsonValue::UInt(cycles))),
            FaultKind::ClockSkew { skew } => {
                pairs.push(("skew_ns", JsonValue::UInt(skew.as_nanos())));
            }
            FaultKind::HostPause { app } => pairs.push(("app", JsonValue::UInt(app as u64))),
            FaultKind::VfReset { vf } => pairs.push(("vf", JsonValue::UInt(vf as u64))),
            FaultKind::Reconfig { scale_permille } => {
                pairs.push(("scale_permille", JsonValue::UInt(scale_permille)));
            }
            FaultKind::TmPause => {}
        }
        JsonValue::obj(pairs)
    }
}

impl ToJson for FaultPlan {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("seed", JsonValue::UInt(self.seed)),
            ("faults", self.faults.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Nanos {
        Nanos::from_millis(n)
    }

    #[test]
    fn parses_every_fault_kind() {
        let plan = FaultPlan::parse(
            "# demo plan\n\
             chaos seed 42\n\
             chaos fault wire_flap at 3ms for 2ms permille 250\n\
             chaos fault me_stall at 6ms for 1ms engines 40\n\
             chaos fault tm_pause at 2ms for 500us\n\
             chaos fault tm_drop at 2ms for 1ms every 3\n\
             chaos fault lock_slow at 1ms for 2ms permille 4000\n\
             chaos fault cpu_burn at 1ms for 2ms cycles 300\n\
             chaos fault clock_skew at 4ms for 1ms skew 200us\n\
             chaos fault host_pause at 3ms for 2ms app 0\n\
             chaos fault vf_reset at 3ms for 1ms vf 1\n\
             chaos fault reconfig at 5ms for 2ms scale_permille 500\n",
        )
        .unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.faults.len(), 10);
        assert_eq!(plan.faults[0].kind, FaultKind::WireFlap { permille: 250 });
        assert_eq!(plan.faults[0].at, ms(3));
        assert_eq!(plan.faults[0].end(), ms(5));
        assert!(plan.faults[0].active_at(ms(3)));
        assert!(plan.faults[0].active_at(ms(4)));
        assert!(!plan.faults[0].active_at(ms(5)), "window is half-open");
        assert_eq!(
            plan.faults[6].kind,
            FaultKind::ClockSkew {
                skew: Nanos::from_micros(200)
            }
        );
    }

    #[test]
    fn rejects_malformed_lines_with_line_numbers() {
        for (script, want_line) in [
            ("chaos seed banana", 1),
            ("chaos seed 1\nchaos fault wire_flap at 1ms for 1ms", 2),
            ("chaos fault wire_flap for 1ms permille 10", 1),
            ("chaos fault wire_flap at 1ms permille 10", 1),
            ("chaos fault wire_flap at 1ms for 0ms permille 10", 1),
            ("chaos fault nosuch at 1ms for 1ms", 1),
            ("chaos fault tm_pause at 1ms for 1ms extra 3", 1),
            ("chaos fault tm_drop at 1ms for 1ms every 0", 1),
            ("totally wrong", 1),
            ("chaos fault wire_flap at 1xx for 1ms permille 10", 1),
        ] {
            let err = FaultPlan::parse(script).unwrap_err();
            assert_eq!(err.line, want_line, "script: {script:?} -> {err}");
            assert!(err.to_string().starts_with("plan line"));
        }
    }

    #[test]
    fn refuses_a_value_its_field_or_the_clock_cannot_hold() {
        let max = u64::MAX;
        for (fault, named) in [
            ("host_pause at 3ms for 2ms app 65536", "app 65536"),
            ("vf_reset at 3ms for 1ms vf 256", "vf 256"),
            (
                "tm_pause at 1ms for 30000000000s",
                "\"30000000000s\" runs past",
            ),
            (
                &format!("tm_pause at {max}ns for 2ms"),
                "for 2000000ns runs past",
            ),
            (
                &format!("clock_skew at 1ms for 1ms skew {max}ns"),
                "skew 18446744073709551615ns",
            ),
        ] {
            let err =
                FaultPlan::parse(&format!("chaos seed 1\nchaos fault {fault}\n")).unwrap_err();
            assert_eq!(err.line, 2, "{err}");
            assert!(err.msg.contains(named), "{err} does not name {named:?}");
        }
        let plan = FaultPlan::parse(&format!(
            "chaos fault host_pause at 3ms for 2ms app 65535\n\
             chaos fault vf_reset at {}ns for 1ns vf 255\n",
            max - 1
        ));
        let faults = plan.unwrap().faults;
        assert_eq!(faults[0].kind, FaultKind::HostPause { app: u16::MAX });
        assert_eq!(faults[1].kind, FaultKind::VfReset { vf: u8::MAX });
        assert_eq!(faults[1].end(), Nanos::MAX, "a window may end at the top");
    }

    #[test]
    fn reconfig_scale_tracks_the_latest_active_window() {
        let plan = FaultPlan::parse(
            "chaos fault reconfig at 1ms for 4ms scale_permille 500\n\
             chaos fault reconfig at 2ms for 1ms scale_permille 250\n",
        )
        .unwrap();
        assert_eq!(plan.reconfig_scale_at(Nanos::from_micros(500)), None);
        assert_eq!(plan.reconfig_scale_at(ms(1)), Some(500));
        assert_eq!(
            plan.reconfig_scale_at(ms(2)),
            Some(250),
            "latest start wins"
        );
        assert_eq!(plan.reconfig_scale_at(ms(3)), Some(500));
        assert_eq!(plan.reconfig_scale_at(ms(5)), None);
    }

    #[test]
    fn plan_json_is_stable() {
        let plan =
            FaultPlan::parse("chaos seed 7\nchaos fault tm_drop at 1ms for 1ms every 2\n").unwrap();
        let doc = plan.to_json().to_pretty();
        let parsed = JsonValue::parse(&doc).unwrap();
        assert_eq!(parsed.get("seed"), Some(&JsonValue::UInt(7)));
        let faults = parsed.get("faults").and_then(|f| f.as_arr()).unwrap();
        assert_eq!(
            faults[0].get("kind").and_then(|k| k.as_str()),
            Some("tm_drop")
        );
        assert_eq!(faults[0].get("every"), Some(&JsonValue::UInt(2)));
    }
}
