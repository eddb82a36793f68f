//! `sat_64B` — the Figure 13 protocol at the smallest frame: the
//! fair-queueing policy, four `LineRateProcess` sources at 2x the 40 G
//! line in aggregate, bare `SmartNic::new`, driven by
//! `np_sim::harness::run_open_loop`.
//!
//! At 64 B per-packet cost is everything, and about 5/6 of the offered
//! packets are `RxDrop` before they reach `decide`: generator, merge and
//! dispatch dominate, the decision engine and the classifier see a sixth
//! of the packets. It is the bypass workload for decision-engine and
//! classifier changes and the showcase for harness and np-sim ones, and
//! it carries the paper's 19.69 Mpps checkpoint.
//!
//! The run starts cold at t = 0, as the figure driver's does:
//! `run_open_loop` is one call and cannot resume after a warm-up prefix.

use std::rc::Rc;
use std::time::Instant;

use flowvalve::pipeline::FlowValvePipeline;
use flowvalve::tree::TreeParams;
use hostsim::policies;
use hostsim::scenario::Scenario;
use netstack::flow::FlowKey;
use netstack::gen::{ArrivalProcess, LineRateProcess};
use netstack::packet::{AppId, VfPort};
use np_sim::config::NicConfig;
use np_sim::harness::{run_open_loop, Source};
use np_sim::nic::SmartNic;
use sim_core::rng::SimRng;
use sim_core::time::Nanos;

use super::{
    start_phases, ChunkClock, FixedFlows, OpenLoop, Params, PassOutcome, Phased, SimCounters,
    Workload,
};
use crate::trace::{shadow_classifier, SharedTracer, TimedDecider};

/// Simulated horizon of one full-size pass (≈ 5.95 M offered packets).
const HORIZON_US: u64 = 50_000;
const FRAME: u32 = 64;
const SOURCES: u16 = 4;
/// The paper's measured maximum at 64 B (Figure 13).
pub const PAPER_MPPS: f64 = 19.69;

pub struct Sat64B {
    pub params: Params,
}

pub struct State {
    nic: SmartNic,
    flows: Vec<(FlowKey, AppId, VfPort)>,
    phases: Vec<Nanos>,
    horizon: Nanos,
    compile_s: f64,
}

/// Ticks the run's [`ChunkClock`] on every `next_arrival` call, across
/// all sources: one call per offered packet.
struct Counted<P> {
    inner: P,
    clock: Rc<ChunkClock>,
}

impl<P: ArrivalProcess> ArrivalProcess for Counted<P> {
    fn next_arrival(&mut self, rng: &mut SimRng) -> (Nanos, u32) {
        self.clock.tick();
        self.inner.next_arrival(rng)
    }
}

fn process(cfg: &NicConfig, phase: Nanos) -> Phased<LineRateProcess> {
    // Each source injects one quarter of 2x line rate.
    Phased {
        inner: LineRateProcess::new(
            cfg.line_rate.scaled(2, u64::from(SOURCES)),
            FRAME,
            cfg.framing,
        ),
        phase,
    }
}

impl Workload for Sat64B {
    type State = State;

    fn setup(&self, tracer: Option<&SharedTracer>) -> State {
        let t = Instant::now();
        let cfg = NicConfig::agilio_cx_40g();
        let scenario = Scenario::fair_queueing_40g(4); // names/vfs/ports only
        let policy = policies::fair_queueing_fv(cfg.line_rate, &scenario);
        let pipeline = FlowValvePipeline::compile(&policy, TreeParams::default(), &cfg)
            .expect("fair-queueing policy compiles");
        let compile_s = t.elapsed().as_secs_f64();
        let nic = match tracer {
            Some(tr) => SmartNic::new(
                cfg.clone(),
                Box::new(TimedDecider::new(
                    pipeline,
                    shadow_classifier(&policy, TreeParams::default()),
                    tr.clone(),
                )),
            ),
            None => SmartNic::new(cfg.clone(), Box::new(pipeline)),
        };
        let flows = (0..SOURCES)
            .map(|i| {
                (
                    FlowKey::tcp([10, 0, 1 + i as u8, 1], 40_000, [10, 0, 255, 1], 9000 + i),
                    AppId(i),
                    VfPort(i as u8),
                )
            })
            .collect();
        let gap = cfg.framing.serialization_time(
            cfg.line_rate.scaled(2, u64::from(SOURCES)),
            u64::from(FRAME),
        );
        State {
            nic,
            flows,
            phases: start_phases(self.params.seed, SOURCES as usize, gap),
            horizon: Nanos::from_micros(self.params.scaled(HORIZON_US, 500)),
            compile_s,
        }
    }

    fn pass(&self, state: State, tracer: Option<&SharedTracer>) -> PassOutcome {
        let State {
            mut nic,
            flows,
            phases,
            horizon,
            compile_s,
        } = state;
        let cfg = nic.config().clone();
        let mut out = PassOutcome {
            compile_s,
            ..PassOutcome::default()
        };
        let mut sim = SimCounters::default();
        let wire_packets;

        if tracer.is_some() {
            // The traced pass mirrors the harness with the benchmark's own
            // merge loop so `gen` and `nic.rx` get spans too.
            let procs = phases
                .iter()
                .map(|_| Box::new(process(&cfg, Nanos::ZERO)) as Box<dyn ArrivalProcess>)
                .collect();
            let mut run = OpenLoop::new(nic, procs, &phases, FixedFlows(flows), self.params.seed);
            run.tally_until = horizon;
            let stretch = run.run_until(horizon, tracer, |_| {});
            out.attempted = stretch.packets;
            out.host_ns = stretch.host_ns;
            out.chunk_ns_per_pkt = stretch.chunk_ns_per_pkt;
            out.failed = run.failed;
            wire_packets = run.tally_bits.iter().sum::<u64>() / u64::from(FRAME * 8);
            sim.delay_p99_ns = run.delay.quantile(0.99);
            sim.delay_samples = run.delay.count();
            nic = run.nic;
        } else {
            let clock = Rc::new(ChunkClock::default());
            let sources = flows
                .iter()
                .zip(&phases)
                .map(|(&(flow, app, vf), &phase)| Source {
                    flow,
                    app,
                    vf,
                    process: Box::new(Counted {
                        inner: process(&cfg, phase),
                        clock: clock.clone(),
                    }),
                })
                .collect();
            let begin = Instant::now();
            let report = run_open_loop(&mut nic, sources, horizon, self.params.seed);
            out.host_ns = begin.elapsed().as_nanos() as u64;
            out.attempted = report.nic.offered;
            out.chunk_ns_per_pkt = clock.chunk_ns_per_call(begin);
            wire_packets = report.wire_packets;
            sim.delay_p99_ns = report.delay.quantile(0.99);
            sim.delay_samples = report.delay.count();
            // The harness hides per-packet outcomes; its own accounting
            // must at least agree with the NIC's.
            out.check(
                report.delay.count() == report.nic.tx_packets
                    && wire_packets <= report.nic.tx_packets,
                || "harness report disagrees with NIC counters".to_owned(),
            );
        }

        sim.read_nic(&mut nic, horizon);
        sim.sim_mpps = wire_packets as f64 / horizon.as_secs_f64() / 1e6;
        sim.sim_err_pct = (sim.sim_mpps - PAPER_MPPS).abs() / PAPER_MPPS * 100.0;
        out.check(sim.nic_conserves_packets(), || {
            format!("NIC packet conservation broken: {:?}", sim.nic)
        });
        out.check(sim.nic.rx_drops > 0, || {
            "2x line rate at 64 B must overflow the receive ring".to_owned()
        });
        out.sim = sim;
        out
    }
}
