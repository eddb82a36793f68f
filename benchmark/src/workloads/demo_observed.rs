//! `demo_observed` — the `fv demo` saturation run with its default
//! observers on: ROADMAP's "whole path, telemetry on".
//!
//! `scripts/motivation.fv` (7 classes, 3 levels, borrow labels), one
//! 1518 B flow per filter offering an equal slice of 1.5x the 40 G line,
//! observers exactly as `fv demo` attaches them (`SmartNic::with_registry`,
//! `attach_telemetry`, a 4096-slot provenance ring at 1-in-64, and
//! `Ledger::audit` at the end). Every packet reaches `decide`, 5/6 are
//! scheduler drops and the flow cache always hits, so the decision engine
//! and the observers do most of the work; the TM, the classifier miss
//! path and the generator do little.
//!
//! The loop is the benchmark's own because `fv demo`'s lives in a binary.

use std::sync::Arc;
use std::time::Instant;

use flowvalve::frontend::Policy;
use flowvalve::pipeline::FlowValvePipeline;
use flowvalve::tree::{SchedulingTree, TreeParams};
use fv_audit::{Ledger, ProvenanceRing, Sampler};
use fv_probe::LatencyAttr;
use fv_scope::{SamplerConfig, TimeSampler};
use fv_telemetry::Registry;
use netstack::flow::FlowKey;
use netstack::gen::{ArrivalProcess, LineRateProcess};
use netstack::packet::{AppId, VfPort};
use np_sim::config::NicConfig;
use np_sim::cost::CycleAttr;
use np_sim::nic::SmartNic;
use sim_core::time::Nanos;

use super::{start_phases, FixedFlows, OpenLoop, Params, PassOutcome, SimCounters, Workload};
use crate::trace::{shadow_classifier, SharedTracer, TimedDecider};

/// The policy under test, embedded at build time.
pub const SCRIPT: &str = include_str!("../../../scripts/motivation.fv");

/// `fv demo`'s provenance sampling: 1 packet in 2^6, 4096 ring slots.
const AUDIT_SHIFT: u32 = 6;
const AUDIT_RING_CAPACITY: usize = 4096;
/// `fv demo`'s event-ring capacity.
const EVENT_RING_CAPACITY: usize = 1024;

/// Simulated horizon of one full-size pass (≈ 0.98 M packets).
const HORIZON_MS: u64 = 200;
/// Warm-up prefix run during set-up (initial bursts drain, caches fill).
const WARMUP_US: u64 = 2_000;

/// How much of the observability stack is attached. Each level adds to
/// the one before; `Audit` is what `fv demo` runs by default and is the
/// level the end-to-end metrics are measured at. The other levels exist
/// for the observer-toggle passes of the traced run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Observers {
    /// `SmartNic::new`, nothing attached.
    Bare,
    /// + shared registry, pipeline per-class telemetry, end-of-run gauges
    ///   and snapshot.
    Telemetry,
    /// + sampled provenance capture and the conservation ledger.
    Audit,
    /// + `CycleAttr` on the cost meter and the `LatencyAttr` span sink.
    Probe,
    /// + the virtual-time `TimeSampler` (1 ms frames).
    Sampler,
}

pub struct DemoObserved {
    pub params: Params,
    pub observers: Observers,
}

pub struct State {
    run: OpenLoop<FixedFlows>,
    horizon: Nanos,
    tree: Arc<SchedulingTree>,
    registry: Option<Registry>,
    audit_ring: Option<Arc<ProvenanceRing>>,
    sampler: Option<TimeSampler>,
    /// Class minor of each source's filter, for the allocation check.
    classes: Vec<u16>,
    compile_s: f64,
}

/// Ideal steady-state allocation in wire bits per second for class
/// `minor` of `motivation.fv` under this load (every filter's flow offers
/// 15 G against a 10 G root):
///
/// * `nc` (1:10) is priority 0 directly under the root and alone offers
///   more than the root rate, so strict priority hands it all 10 G;
/// * `s1` (1:2, priority 1) is left with 10 − 10 = 0, so `ws` (1:30),
///   `kvs` (1:40) and `ml` (1:41) below it get 0 — `ml`'s 2 G guarantee is
///   carved out of `s2`'s share, which is 0, and borrowing finds no spare
///   tokens anywhere.
fn ideal_wire_bps(minor: u16) -> f64 {
    match minor {
        10 => 10e9,
        _ => 0.0,
    }
}

const ROOT_BPS: f64 = 10e9;

impl Workload for DemoObserved {
    type State = State;

    fn setup(&self, tracer: Option<&SharedTracer>) -> State {
        let t = Instant::now();
        let policy = Policy::parse(SCRIPT).expect("motivation.fv parses");
        let cfg = NicConfig::agilio_cx_40g();
        let pipeline = FlowValvePipeline::compile(&policy, TreeParams::default(), &cfg)
            .expect("motivation.fv compiles");
        let compile_s = t.elapsed().as_secs_f64();
        let tree = pipeline.tree().clone();

        let level = self.observers;
        let decider: Box<dyn np_sim::nic::EgressDecider> = match tracer {
            Some(tr) => Box::new(TimedDecider::new(
                pipeline,
                shadow_classifier(&policy, TreeParams::default()),
                tr.clone(),
            )),
            None => Box::new(pipeline),
        };
        // Attachment order and calls are `fv demo`'s.
        let registry = (level >= Observers::Telemetry)
            .then(|| Registry::with_ring_capacity(EVENT_RING_CAPACITY));
        let mut nic = match &registry {
            Some(r) => SmartNic::with_registry(cfg.clone(), decider, r),
            None => SmartNic::new(cfg.clone(), decider),
        };
        let audit_ring = (level >= Observers::Audit)
            .then(|| Arc::new(ProvenanceRing::sampled(AUDIT_RING_CAPACITY, AUDIT_SHIFT)));
        if let (Some(r), Some(p)) = (&registry, nic.decider_as::<FlowValvePipeline>()) {
            p.attach_telemetry(r);
            if let Some(ring) = &audit_ring {
                p.attach_auditor(ring.clone(), Sampler::one_in_pow2(AUDIT_SHIFT));
            }
        }
        if level >= Observers::Probe {
            let r = registry.as_ref().expect("probe level has a registry");
            nic.attach_probe(Arc::new(CycleAttr::new(cfg.num_mes)));
            r.install_span_sink(Arc::new(LatencyAttr::new()));
        }
        let sampler = (level >= Observers::Sampler).then(|| {
            TimeSampler::new(
                registry.as_ref().expect("sampler level has a registry"),
                SamplerConfig::default(),
            )
        });

        // One flow per filter, matched as precisely as the filter allows
        // (the construction `fv demo` uses).
        let flows: Vec<(FlowKey, AppId, VfPort)> = policy
            .filters
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let m = &f.matcher;
                let flow = FlowKey::tcp(
                    [10, 0, 0, 10 + i as u8],
                    m.src_port.unwrap_or(41_000 + i as u16),
                    [10, 0, 255, 1],
                    m.dst_port.unwrap_or(5_000 + i as u16),
                );
                (flow, AppId(i as u16), m.vf.unwrap_or(VfPort(i as u8)))
            })
            .collect();
        let classes = policy.filters.iter().map(|f| f.class.0).collect();
        // Each flow offers an equal slice of 1.5x line rate.
        let offered = cfg.line_rate.scaled(3, 2 * flows.len() as u64);
        let procs: Vec<Box<dyn ArrivalProcess>> = flows
            .iter()
            .map(|_| {
                Box::new(LineRateProcess::new(offered, 1518, cfg.framing))
                    as Box<dyn ArrivalProcess>
            })
            .collect();
        let gap = cfg.framing.serialization_time(offered, 1518);
        let phases = start_phases(self.params.seed, flows.len(), gap);

        let horizon = Nanos::from_micros(self.params.scaled(HORIZON_MS * 1_000, 2 * WARMUP_US));
        let mut run = OpenLoop::new(nic, procs, &phases, FixedFlows(flows), self.params.seed);
        // Steady state for the allocation check: the last four fifths.
        run.tally_from = horizon / 5;
        run.tally_until = horizon;
        let mut state = State {
            run,
            horizon,
            tree,
            registry,
            audit_ring,
            sampler,
            classes,
            compile_s,
        };
        // Traced set-ups trace the prefix too: the decider inside the NIC
        // cannot tell prefix from pass, and per-packet means must cover
        // the same packets at every boundary.
        state.advance(Nanos::from_micros(WARMUP_US), tracer);
        state
    }

    fn pass(&self, mut state: State, tracer: Option<&SharedTracer>) -> PassOutcome {
        let begin = Instant::now();
        let horizon = state.horizon;
        let stretch = state.advance(horizon, tracer);

        // End of run, as `fv demo`: cold-path gauges, the conservation
        // ledger over the sampled provenance, one registry snapshot.
        let mut audit = None;
        if let Some(registry) = &state.registry {
            state.run.nic.sync_gauges(horizon);
            if let Some(p) = state.run.nic.decider_as::<FlowValvePipeline>() {
                p.sync_gauges(horizon);
            }
            if let Some(ring) = &state.audit_ring {
                let report = Ledger::audit(&ring.records(), &state.tree.slab_snapshot());
                report.install_counters(registry, 0);
                audit = Some(report);
            }
            std::hint::black_box(registry.snapshot(horizon));
        }
        let host_ns = begin.elapsed().as_nanos() as u64;

        let mut out = PassOutcome {
            attempted: stretch.packets,
            failed: state.run.failed,
            host_ns,
            chunk_ns_per_pkt: stretch.chunk_ns_per_pkt,
            compile_s: state.compile_s,
            ..PassOutcome::default()
        };
        let mut sim = SimCounters::default();
        sim.read_nic(&mut state.run.nic, horizon);
        sim.delay_p99_ns = state.run.delay.quantile(0.99);
        sim.delay_samples = state.run.delay.count();
        let window = (state.run.tally_until - state.run.tally_from).as_secs_f64();
        let framing = state.run.nic.config().framing;
        sim.sim_err_pct = state
            .classes
            .iter()
            .zip(&state.run.tally_bits)
            .map(|(&minor, &frame_bits)| {
                // Tokens meter wire bits; every frame here is 1518 B.
                let wire_bits = frame_bits / (1518 * 8) * framing.wire_bits(1518);
                let achieved = wire_bits as f64 / window;
                (achieved - ideal_wire_bps(minor)).abs() / ROOT_BPS * 100.0
            })
            .fold(0.0, f64::max);
        if let Some(report) = &audit {
            sim.audit_records = report.records;
            sim.audit_violations = report.violations.len() as u64;
            out.failed += sim.audit_violations;
            out.check(report.ok(), || {
                format!(
                    "ledger: {} conservation violations",
                    report.violations.len()
                )
            });
        }
        out.check(sim.nic_conserves_packets(), || {
            format!("NIC packet conservation broken: {:?}", sim.nic)
        });
        out.check(sim.cache_misses <= 8 * state.classes.len() as u64, || {
            format!(
                "flow cache missed {} times on a fixed flow set",
                sim.cache_misses
            )
        });
        out.sim = sim;
        out
    }
}

impl State {
    fn advance(&mut self, until: Nanos, tracer: Option<&SharedTracer>) -> super::Stretch {
        match self.sampler.as_mut() {
            Some(s) => {
                let stretch = self.run.run_until(until, tracer, |t| s.advance_to(t));
                s.advance_to(until);
                stretch
            }
            None => self.run.run_until(until, tracer, |_| {}),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(observers: Observers) -> PassOutcome {
        let w = DemoObserved {
            params: Params {
                seed: 3,
                shrink: 50,
            },
            observers,
        };
        let s = w.setup(None);
        w.pass(s, None)
    }

    #[test]
    fn observers_do_not_change_simulated_results() {
        let bare = tiny(Observers::Bare);
        let full = tiny(Observers::Sampler);
        assert!(bare.problems.is_empty(), "{:?}", bare.problems);
        assert!(full.problems.is_empty(), "{:?}", full.problems);
        assert_eq!(bare.sim.nic, full.sim.nic);
        assert_eq!(bare.sim.delay_p99_ns, full.sim.delay_p99_ns);
        assert_eq!(bare.sim.audit_records, 0);
        assert!(full.sim.audit_records > 0);
        // 5/6 of the offered load is over the 10 G root.
        let n = &bare.sim.nic;
        assert!(n.sched_drops * 10 > n.offered * 7, "{n:?}");
    }
}
