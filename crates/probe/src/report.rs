//! The assembled attribution profile: folded stacks, summary table, JSON.
//!
//! [`ProbeReport`] is a plain snapshot — everything is collected once at
//! the end of a run, so rendering it twice (e.g. `--folded` to a file and
//! the summary to stdout) sees identical data. All orders are
//! deterministic; with a fixed simulation seed the folded export is
//! byte-identical across runs, which `scripts/check.sh` gates on.

use fv_telemetry::registry::{MetricValue, Snapshot};
use fv_telemetry::span::STAGES;
use fv_telemetry::JsonValue;
use np_sim::cost::{AttrCell, CycleAttr, ATTR_STAGES};
use np_sim::lock::PerLockStats;
use sim_core::time::Nanos;

use crate::contention::{rank_locks, LockRank};
use crate::latency::{ClassLatency, FlowVolume, LatencyAttr, UNATTRIBUTED};

/// A queue-depth high-water mark mirrored from a registry gauge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waterline {
    /// Gauge name (e.g. `tm.fifo.backlog_bytes`).
    pub name: String,
    /// Value at snapshot time.
    pub value: u64,
    /// High-water mark over the run.
    pub max: u64,
}

/// The complete attribution profile of one run.
#[derive(Debug, Clone)]
pub struct ProbeReport {
    /// Simulated horizon the profile covers.
    pub horizon: Nanos,
    /// Packets behind each span sample and heavy-hitter count: the
    /// latency sink sees the packets the registry samples, one in this
    /// many ([`Snapshot::sample_period`]). Cycles, locks and waterlines
    /// are exact.
    pub sample_period: u64,
    /// Worker rows in the cycle attribution (micro-engines).
    pub workers: usize,
    /// Non-zero cycle-attribution cells, `(worker, stage, op)` ordered.
    pub cells: Vec<AttrCell>,
    /// Top-contended locks, wait-ranked.
    pub locks: Vec<LockRank>,
    /// Per-class latency decomposition, class-ordered.
    pub classes: Vec<ClassLatency>,
    /// Heaviest flows by wire bits.
    pub top_flows: Vec<FlowVolume>,
    /// Queue-depth waterlines, name-ordered.
    pub waterlines: Vec<Waterline>,
}

/// How many heavy hitters a report keeps.
const TOP_K: usize = 10;

impl ProbeReport {
    /// Assembles a report from the run's probe handles and its final
    /// registry snapshot (the source of the waterline gauges).
    pub fn build(
        attr: &CycleAttr,
        per_lock: &[PerLockStats],
        latency: &LatencyAttr,
        snapshot: &Snapshot,
        horizon: Nanos,
    ) -> ProbeReport {
        let waterlines = snapshot
            .entries
            .iter()
            .filter(|e| e.name.contains("backlog"))
            .filter_map(|e| match e.value {
                MetricValue::Gauge { value, max } => Some(Waterline {
                    name: e.name.clone(),
                    value,
                    max,
                }),
                _ => None,
            })
            .collect();
        ProbeReport {
            horizon,
            sample_period: snapshot.sample_period(),
            workers: attr.workers(),
            cells: attr.cells(),
            locks: rank_locks(per_lock),
            classes: latency.class_breakdown(),
            top_flows: latency.top_flows(TOP_K),
            waterlines,
        }
    }

    /// Total attributed cycles.
    pub fn total_cycles(&self) -> u64 {
        self.cells.iter().map(|c| c.cycles).sum()
    }

    /// Cycles per attribution phase, in [`ATTR_STAGES`] order.
    pub fn cycles_by_phase(&self) -> Vec<(&'static str, u64)> {
        ATTR_STAGES
            .iter()
            .map(|s| {
                (
                    s.name(),
                    self.cells
                        .iter()
                        .filter(|c| c.stage == *s)
                        .map(|c| c.cycles)
                        .sum(),
                )
            })
            .collect()
    }

    /// Span samples per pipeline stage, summed across classes.
    pub fn span_samples(&self) -> Vec<(&'static str, u64)> {
        STAGES
            .iter()
            .map(|s| {
                (
                    s.name(),
                    self.classes
                        .iter()
                        .filter_map(|c| c.stages[*s as usize].as_ref())
                        .map(|h| h.count)
                        .sum(),
                )
            })
            .collect()
    }

    fn worker_frame(&self, worker: usize) -> String {
        if worker >= self.workers {
            "shared".to_string()
        } else {
            format!("me{worker}")
        }
    }

    /// Flamegraph-compatible folded stacks, one `frames count` line per
    /// non-zero cell: `nic;me3;sched;atomic_op 12840`. Pipe into
    /// `flamegraph.pl` / `inferno-flamegraph` as-is.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for c in &self.cells {
            out.push_str(&format!(
                "nic;{};{};{} {}\n",
                self.worker_frame(c.worker),
                c.stage.name(),
                c.op_name(),
                c.cycles
            ));
        }
        out
    }

    fn class_name(class: u64) -> String {
        if class == UNATTRIBUTED {
            "unlabeled".to_string()
        } else {
            format!("1:{class}")
        }
    }

    /// Human summary: cycle attribution, lock ranking, per-class latency
    /// breakdown, heavy hitters and waterlines.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let total = self.total_cycles().max(1);
        out.push_str(&format!(
            "fv-probe profile · horizon {} us · {} cycles attributed\n",
            self.horizon.as_nanos() / 1_000,
            self.total_cycles()
        ));

        out.push_str("\ncycles by phase\n");
        for (phase, cycles) in self.cycles_by_phase() {
            if cycles == 0 {
                continue;
            }
            out.push_str(&format!(
                "  {phase:<12} {cycles:>12}  {:>5.1}%\n",
                cycles as f64 * 100.0 / total as f64
            ));
            for c in self.cells.iter().filter(|c| c.stage.name() == phase) {
                out.push_str(&format!(
                    "    {:<10} {:>12}  x{} ({})\n",
                    c.op_name(),
                    c.cycles,
                    c.count,
                    self.worker_frame(c.worker),
                ));
            }
        }

        out.push_str("\ntop contended locks\n");
        out.push_str("  lock   acquires  failed  contended      wait_ns      hold_ns  cont‰\n");
        for r in self.locks.iter().take(TOP_K) {
            out.push_str(&format!(
                "  {:<6} {:>8}  {:>6}  {:>9}  {:>11}  {:>11}  {:>5}\n",
                r.id.0,
                r.stats.acquires,
                r.stats.try_failed,
                r.stats.contended,
                r.stats.wait_total.as_nanos(),
                r.stats.hold_total.as_nanos(),
                r.contention_permille()
            ));
        }

        out.push_str(&format!(
            "\nlatency by class (ns; sampled packets, 1 in {})\n",
            self.sample_period
        ));
        out.push_str("  class      stage      count       p50       p90       p99      p999\n");
        for cl in &self.classes {
            for (i, stage) in STAGES.iter().enumerate() {
                let Some(h) = &cl.stages[i] else { continue };
                out.push_str(&format!(
                    "  {:<10} {:<9} {:>6}  {:>8}  {:>8}  {:>8}  {:>8}\n",
                    Self::class_name(cl.class),
                    stage.name(),
                    h.count,
                    h.p50,
                    h.p90,
                    h.p99,
                    h.p999
                ));
            }
        }

        out.push_str(&format!(
            "\ntop flows (wire bits of sampled packets, 1 in {})\n",
            self.sample_period
        ));
        for f in &self.top_flows {
            out.push_str(&format!(
                "  {:#018x}  {:<10} {:>14} bits (±{})  {} pkts\n",
                f.flow_hash,
                Self::class_name(f.class),
                f.wire_bits,
                f.err_bits,
                f.packets
            ));
        }

        out.push_str("\nwaterlines\n");
        for w in &self.waterlines {
            out.push_str(&format!(
                "  {:<28} {:>12} (max {})\n",
                w.name, w.value, w.max
            ));
        }
        out
    }

    /// The machine-readable profile (`fv profile --json`).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("horizon_ns", JsonValue::UInt(self.horizon.as_nanos())),
            (
                "cycles",
                JsonValue::obj([
                    ("total", JsonValue::UInt(self.total_cycles())),
                    ("workers", JsonValue::UInt(self.workers as u64)),
                    (
                        "by_phase",
                        JsonValue::obj(
                            self.cycles_by_phase()
                                .into_iter()
                                .map(|(k, v)| (k, JsonValue::UInt(v))),
                        ),
                    ),
                    (
                        "cells",
                        JsonValue::arr(self.cells.iter().map(|c| {
                            JsonValue::obj([
                                ("worker", JsonValue::Str(self.worker_frame(c.worker))),
                                ("stage", JsonValue::Str(c.stage.name().to_string())),
                                ("op", JsonValue::Str(c.op_name().to_string())),
                                ("cycles", JsonValue::UInt(c.cycles)),
                                ("count", JsonValue::UInt(c.count)),
                            ])
                        })),
                    ),
                ]),
            ),
            ("sampled_one_in", JsonValue::UInt(self.sample_period)),
            (
                "span_samples",
                JsonValue::obj(
                    self.span_samples()
                        .into_iter()
                        .map(|(k, v)| (k, JsonValue::UInt(v))),
                ),
            ),
            (
                "locks",
                JsonValue::arr(self.locks.iter().map(|r| {
                    JsonValue::obj([
                        ("id", JsonValue::UInt(r.id.0 as u64)),
                        ("acquires", JsonValue::UInt(r.stats.acquires)),
                        ("try_failed", JsonValue::UInt(r.stats.try_failed)),
                        ("contended", JsonValue::UInt(r.stats.contended)),
                        ("wait_ns", JsonValue::UInt(r.stats.wait_total.as_nanos())),
                        ("hold_ns", JsonValue::UInt(r.stats.hold_total.as_nanos())),
                        (
                            "contention_permille",
                            JsonValue::UInt(r.contention_permille()),
                        ),
                    ])
                })),
            ),
            (
                "latency",
                JsonValue::arr(self.classes.iter().map(|cl| {
                    JsonValue::obj([
                        ("class", JsonValue::Str(Self::class_name(cl.class))),
                        (
                            "stages",
                            JsonValue::obj(STAGES.iter().enumerate().filter_map(|(i, s)| {
                                cl.stages[i].as_ref().map(|h| {
                                    (
                                        s.name(),
                                        JsonValue::obj([
                                            ("count", JsonValue::UInt(h.count)),
                                            ("p50", JsonValue::UInt(h.p50)),
                                            ("p90", JsonValue::UInt(h.p90)),
                                            ("p99", JsonValue::UInt(h.p99)),
                                            ("p999", JsonValue::UInt(h.p999)),
                                            ("max", JsonValue::UInt(h.max)),
                                        ]),
                                    )
                                })
                            })),
                        ),
                    ])
                })),
            ),
            (
                "top_flows",
                JsonValue::arr(self.top_flows.iter().map(|f| {
                    JsonValue::obj([
                        (
                            "flow_hash",
                            JsonValue::Str(format!("{:#018x}", f.flow_hash)),
                        ),
                        ("class", JsonValue::Str(Self::class_name(f.class))),
                        ("wire_bits", JsonValue::UInt(f.wire_bits)),
                        ("err_bits", JsonValue::UInt(f.err_bits)),
                        ("packets", JsonValue::UInt(f.packets)),
                    ])
                })),
            ),
            (
                "waterlines",
                JsonValue::arr(self.waterlines.iter().map(|w| {
                    JsonValue::obj([
                        ("name", JsonValue::Str(w.name.clone())),
                        ("value", JsonValue::UInt(w.value)),
                        ("max", JsonValue::UInt(w.max)),
                    ])
                })),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use fv_telemetry::span::{SpanSink, Stage};
    use fv_telemetry::Registry;
    use np_sim::config::CycleCosts;
    use np_sim::cost::{CostMeter, Op};
    use np_sim::lock::{LockId, LockTable};

    use super::*;

    fn sample_report() -> ProbeReport {
        let attr = Arc::new(CycleAttr::new(2));
        let mut m = CostMeter::new(CycleCosts::agilio());
        m.attach_attr(Arc::clone(&attr));
        m.set_worker(0);
        m.charge(Op::Parse);
        m.charge_n(Op::AtomicOp, 2);

        let mut locks = LockTable::new(2);
        locks.acquire(LockId(1), Nanos::ZERO, Nanos::from_nanos(100));
        locks.acquire(LockId(1), Nanos::ZERO, Nanos::from_nanos(100));

        let lat = LatencyAttr::new();
        lat.classify(1, 7, 0xfeed, 12_000);
        lat.span(Stage::Sched, Nanos::ZERO, 1, Nanos::from_nanos(40));

        let reg = Registry::new();
        reg.gauge("tm.fifo.backlog_bytes").set(9_000);
        reg.gauge("tm.fifo.backlog_bytes").set(10);
        ProbeReport::build(
            &attr,
            locks.per_lock_stats(),
            &lat,
            &reg.snapshot(Nanos::from_micros(10)),
            Nanos::from_millis(1),
        )
    }

    #[test]
    fn folded_stacks_carry_every_cell() {
        let r = sample_report();
        let folded = r.folded();
        let c = CycleCosts::agilio();
        assert!(folded.contains(&format!("nic;me0;parse;parse {}\n", c.parse)));
        assert!(folded.contains(&format!("nic;me0;sched;atomic_op {}\n", 2 * c.atomic_op)));
        assert_eq!(folded.lines().count(), 2);
    }

    #[test]
    fn report_sections_and_json_agree() {
        let r = sample_report();
        assert_eq!(r.locks.len(), 1);
        assert_eq!(r.locks[0].id, LockId(1));
        assert_eq!(r.waterlines.len(), 1);
        assert_eq!(r.waterlines[0].max, 9_000);

        let doc = r.to_json();
        // No span recorder was wired to this registry: nothing is sampled.
        assert_eq!(doc.get("sampled_one_in").unwrap().as_u64(), Some(1));
        let by_phase = doc.get("cycles").unwrap().get("by_phase").unwrap();
        assert_eq!(
            by_phase.get("parse").unwrap().as_u64().unwrap(),
            CycleCosts::agilio().parse
        );
        assert_eq!(
            doc.get("span_samples")
                .unwrap()
                .get("sched")
                .unwrap()
                .as_u64(),
            Some(1)
        );
        let locks = doc.get("locks").unwrap().as_arr().unwrap();
        assert_eq!(locks[0].get("wait_ns").unwrap().as_u64(), Some(100));
        let text = r.render();
        for section in [
            "cycles by phase",
            "top contended locks",
            "latency by class",
            "top flows",
            "waterlines",
        ] {
            assert!(text.contains(section), "missing section {section}");
        }
        // Round-trips through the in-tree parser.
        assert!(JsonValue::parse(&doc.to_pretty()).is_ok());
    }
}
