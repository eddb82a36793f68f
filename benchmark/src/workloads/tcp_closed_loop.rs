//! `tcp_closed_loop` — Figure 11(b): `Scenario::fair_queueing_40g(4)`
//! (4 apps x 4 AIMD connections, staged joins and a staged leave, 1518 B)
//! over `EgressPath::flowvalve` with the experiment tree parameters,
//! driven by `hostsim::engine::run`. The loop is closed in *simulated*
//! time: a connection sends its next segment only when an ACK or a loss
//! notification arrives.
//!
//! It is the only workload on `sim_core::EventQueue`, `netstack::TcpConn`
//! and the hostsim engine, and it uses np-sim and flowvalve differently
//! from the open-loop ones: arrivals follow feedback, the set of active
//! classes changes as apps join and leave, so borrowing flips and epochs
//! roll. It is also what the slow figure drivers spend their time in.
//!
//! The figure's time axis is compressed further than the figure driver's
//! (5 ms instead of 25 ms per figure-second) to fit a pass in under a
//! second; a stage still spans 250 base RTTs.

use std::rc::Rc;
use std::time::Instant;

use flowvalve::pipeline::FlowValvePipeline;
use flowvalve::tree::TreeParams;
use hostsim::engine::run;
use hostsim::path::EgressPath;
use hostsim::policies;
use hostsim::scenario::Scenario;
use netstack::packet::Packet;
use np_sim::config::NicConfig;
use np_sim::cost::CostMeter;
use np_sim::lock::LockTable;
use np_sim::nic::{Decision, EgressDecider, SmartNic};
use sim_core::time::Nanos;

use super::{ChunkClock, Params, PassOutcome, SimCounters, Workload};
use crate::trace::{shadow_classifier, SharedTracer, TimedDecider};

/// Simulated time per figure-second in a full-size pass.
const TIME_SCALE_US: u64 = 5_000;
const CONNS: usize = 4;

/// Tree parameters of the closed-loop figure drivers
/// (`bench::experiment_tree_params`): burst windows wide enough to absorb
/// a compressed TCP sawtooth.
fn experiment_tree_params() -> TreeParams {
    TreeParams {
        burst_window: Nanos::from_millis(2),
        shadow_burst_window: Nanos::from_millis(1),
        ..TreeParams::default()
    }
}

/// Figure 11(b) stages on the figure axis: `(from_s, to_s, active apps)`.
/// The ideal allocation is an equal split of the wire among the active
/// apps (equal weights, every leaf may borrow from every other). The
/// tree meters wire bits and the recorder counts frame bits, so the
/// ideal goodput of `n` active apps is `40 G x 1518/1538 / n` each.
const STAGES: [(usize, usize, &[usize]); 5] = [
    (2, 10, &[0]),
    (12, 20, &[0, 1]),
    (22, 30, &[0, 1, 2]),
    (32, 40, &[0, 1, 2, 3]),
    (42, 50, &[1, 2, 3]),
];

pub struct TcpClosedLoop {
    pub params: Params,
}

pub struct State {
    scenario: Scenario,
    path: EgressPath,
    clock: Rc<ChunkClock>,
    compile_s: f64,
}

/// Ticks the pass's [`ChunkClock`] on every decision and is otherwise the
/// decider it wraps. `hostsim::engine::run` is one call; its decisions
/// are the one place the benchmark is called back from inside it, and
/// every packet of this workload reaches one (`RxDrop` = 0, checked).
struct Chunked {
    inner: Box<dyn EgressDecider>,
    clock: Rc<ChunkClock>,
}

impl EgressDecider for Chunked {
    fn decide(
        &mut self,
        pkt: &Packet,
        now: Nanos,
        meter: &mut CostMeter,
        locks: &mut LockTable,
    ) -> Decision {
        self.clock.tick();
        self.inner.decide(pkt, now, meter, locks)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self.inner.as_any_mut()
    }
}

/// `fair_queueing_40g` with every instant rescaled to `time_scale` per
/// figure-second, and the seed set.
pub fn scenario(time_scale: Nanos, seed: u64) -> Scenario {
    let mut s = Scenario::fair_queueing_40g(CONNS);
    let rescale = |t: Nanos| {
        Nanos::from_nanos(
            (t.as_nanos() as u128 * time_scale.as_nanos() as u128 / s.time_scale.as_nanos() as u128)
                as u64,
        )
    };
    s.horizon = rescale(s.horizon);
    for app in &mut s.apps {
        app.start = rescale(app.start);
        app.stop = rescale(app.stop);
    }
    s.time_scale = time_scale;
    s.seed = seed;
    s
}

impl Workload for TcpClosedLoop {
    type State = State;

    fn setup(&self, tracer: Option<&SharedTracer>) -> State {
        let scale = Nanos::from_micros(self.params.scaled(TIME_SCALE_US, 400));
        let scenario = scenario(scale, self.params.seed);
        let t = Instant::now();
        let policy = policies::fair_queueing_fv(scenario.link, &scenario);
        let cfg = NicConfig::agilio_cx_40g();
        let pipeline = FlowValvePipeline::compile(&policy, experiment_tree_params(), &cfg)
            .expect("fair-queueing policy compiles");
        let compile_s = t.elapsed().as_secs_f64();
        let inner: Box<dyn EgressDecider> = match tracer {
            Some(tr) => Box::new(TimedDecider::new(
                pipeline,
                shadow_classifier(&policy, experiment_tree_params()),
                tr.clone(),
            )),
            None => Box::new(pipeline),
        };
        let clock = Rc::new(ChunkClock::default());
        let decider = Chunked {
            inner,
            clock: clock.clone(),
        };
        State {
            scenario,
            path: EgressPath::flowvalve(SmartNic::new(cfg, Box::new(decider))),
            clock,
            compile_s,
        }
    }

    fn pass(&self, state: State, _tracer: Option<&SharedTracer>) -> PassOutcome {
        let State {
            scenario,
            path,
            clock,
            compile_s,
        } = state;
        let begin = Instant::now();
        let (report, path) = run(&scenario, path);
        let host_ns = begin.elapsed().as_nanos() as u64;

        let mut out = PassOutcome {
            host_ns,
            chunk_ns_per_pkt: clock.chunk_ns_per_call(begin),
            compile_s,
            ..PassOutcome::default()
        };
        let mut sim = SimCounters::default();
        let EgressPath::FlowValve { mut nic } = path else {
            unreachable!("run returns the path it was given");
        };
        sim.read_nic(&mut nic, scenario.horizon);
        out.attempted = sim.nic.offered;
        sim.delivered = report.delivered;
        sim.lost = report.dropped;
        sim.delay_p99_ns = report.delay.quantile(0.99);
        sim.delay_samples = report.delay.count();

        let ideal_total = 40.0 * 1518.0 / 1538.0;
        let mut err_gbps = 0.0f64;
        for (from, to, active) in STAGES {
            for &a in active {
                let name = &scenario.apps[a].name;
                let got = report.mean_gbps(&scenario, name, from as f64, to as f64);
                err_gbps = err_gbps.max((got - ideal_total / active.len() as f64).abs());
            }
        }
        sim.sim_err_pct = err_gbps / 40.0 * 100.0;
        let (from, to, active) = STAGES[3];
        let rates: Vec<f64> = active
            .iter()
            .map(|&a| report.mean_gbps(&scenario, &scenario.apps[a].name, from as f64, to as f64))
            .collect();
        let (sum, sq): (f64, f64) = rates
            .iter()
            .fold((0.0, 0.0), |(s, q), r| (s + r, q + r * r));
        sim.jain_fairness = if sq > 0.0 {
            sum * sum / (rates.len() as f64 * sq)
        } else {
            0.0
        };

        out.check(sim.nic_conserves_packets(), || {
            format!("NIC packet conservation broken: {:?}", sim.nic)
        });
        out.check(clock.calls() == sim.nic.offered, || {
            format!(
                "{} decisions for {} offered packets: chunks are not per packet",
                clock.calls(),
                sim.nic.offered
            )
        });
        out.check(
            sim.delivered == sim.nic.tx_packets && sim.delivered + sim.lost == sim.nic.offered,
            || {
                format!(
                    "engine saw {} delivered + {} lost, NIC {:?}",
                    sim.delivered, sim.lost, sim.nic
                )
            },
        );
        out.check(sim.jain_fairness > 0.9, || {
            format!("four equal apps share unfairly: Jain {}", sim.jain_fairness)
        });
        out.sim = sim;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rescaled_scenario_keeps_the_figure_axis() {
        let s = scenario(Nanos::from_millis(5), 9);
        assert_eq!(s.horizon, Nanos::from_millis(250));
        assert_eq!(s.apps[1].start, Nanos::from_millis(50));
        assert_eq!(s.apps[0].stop, Nanos::from_millis(200));
        assert_eq!(s.fig_secs(10.0), Nanos::from_millis(50));
        assert_eq!(s.seed, 9);
    }
}
