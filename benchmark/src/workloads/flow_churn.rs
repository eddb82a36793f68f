//! `flow_churn` — a working set four times the flow cache, everything
//! admitted.
//!
//! A generated `fv` script (64 weighted leaves under a 40 G root, 32
//! `src /24` filters that land in the filter table's residue scan ahead of
//! 64 exact `dport` filters), 64 B CBR at 8 Mpps — below the
//! cache-thrashed compute bound, so nothing is dropped at ingress — with
//! each packet's flow drawn uniformly from 262 144 flows against the
//! default 65 536-entry, 8-shard flow cache (each worker stripe holds
//! 8 192 entries, so the hit ratio is about 0.03).
//!
//! The classifier miss path (hash probes plus the residue scan, then a
//! cache fill that evicts) is a large share of per-packet time here and
//! nowhere else, and 100 % `Forward` drives TM, wire and tx accounting on
//! every packet — the opposite of `demo_observed` on both counts. A
//! miss-path gain that taxes the hit path, or a drop-path gain that taxes
//! the forward path, shows as one workload moving against the other.

use std::time::Instant;

use flowvalve::frontend::Policy;
use flowvalve::pipeline::FlowValvePipeline;
use flowvalve::tree::TreeParams;
use netstack::flow::FlowKey;
use netstack::gen::{ArrivalProcess, CbrProcess};
use netstack::packet::{AppId, VfPort};
use np_sim::config::NicConfig;
use np_sim::nic::SmartNic;
use sim_core::rng::SimRng;
use sim_core::time::Nanos;
use sim_core::units::BitRate;

use super::{FlowPick, OpenLoop, Params, PassOutcome, SimCounters, Workload};
use crate::trace::{shadow_classifier, SharedTracer, TimedDecider};

pub const LEAVES: u16 = 64;
pub const RESIDUE_FILTERS: u16 = 32;
pub const FLOWS: u64 = 262_144;
const FRAME: u32 = 64;
const PPS: u64 = 8_000_000;
const ROOT_GBIT: u64 = 40;
/// Simulated horizon of one full-size pass (0.8 M packets).
const HORIZON_US: u64 = 100_000;
/// Warm-up prefix run during set-up (16 k packets: shards start to fill).
const WARMUP_US: u64 = 2_000;

/// The policy script: leaf `k` is class `1:(100+k)` with weight
/// `1 + k % 4`; residue filter `n` sends `10.8.n.0/24` to leaf `2n`;
/// exact filter `k` sends `dport 6000+k` to leaf `k`. The `/24` filters
/// come first in match order, so every table lookup scans them.
pub fn script() -> String {
    let mut s = format!(
        "fv qdisc add dev nic0 root handle 1: fv\n\
         fv class add dev nic0 parent root classid 1:1 name root rate {ROOT_GBIT}gbit\n"
    );
    for k in 0..LEAVES {
        s.push_str(&format!(
            "fv class add dev nic0 parent 1:1 classid 1:{} name leaf{k} weight {}\n",
            100 + k,
            1 + k % 4
        ));
    }
    for n in 0..RESIDUE_FILTERS {
        s.push_str(&format!(
            "fv filter add dev nic0 prio {} match ip src 10.8.{n}.0/24 flowid 1:{}\n",
            1 + n,
            100 + 2 * n
        ));
    }
    for k in 0..LEAVES {
        s.push_str(&format!(
            "fv filter add dev nic0 prio {} match ip dport {} flowid 1:{}\n",
            1 + RESIDUE_FILTERS + k,
            6000 + k,
            100 + k
        ));
    }
    s
}

/// Flow `i` of the working set and the leaf it classifies to. The low 16
/// bits pick the source address inside `10.8.0.0/16`, the rest the source
/// port; one flow in eight falls in a `/24` a residue filter names.
pub fn flow(i: u64) -> (FlowKey, u16) {
    let net = (i >> 8) as u8;
    let dport_leaf = (i % u64::from(LEAVES)) as u16;
    let key = FlowKey::udp(
        [10, 8, net, i as u8],
        40_000 + (i >> 16) as u16,
        [10, 0, 255, 1],
        6000 + dport_leaf,
    );
    let leaf = if u16::from(net) < RESIDUE_FILTERS {
        2 * u16::from(net)
    } else {
        dport_leaf
    };
    (key, leaf)
}

/// Draws each packet's flow uniformly from the working set.
pub struct ChurnFlows {
    rng: SimRng,
    /// Packets offered per leaf.
    pub offered: Vec<u64>,
}

impl ChurnFlows {
    pub fn new(seed: u64) -> Self {
        ChurnFlows {
            rng: SimRng::seed(seed ^ 0xF10C_4A11),
            offered: vec![0; LEAVES as usize],
        }
    }
}

impl FlowPick for ChurnFlows {
    #[inline]
    fn pick(&mut self, _source: usize) -> (FlowKey, AppId, VfPort) {
        let (key, leaf) = flow(self.rng.range(0, FLOWS));
        self.offered[leaf as usize] += 1;
        (key, AppId(leaf), VfPort(0))
    }
}

pub struct FlowChurn {
    pub params: Params,
}

pub struct State {
    run: OpenLoop<ChurnFlows>,
    horizon: Nanos,
    compile_s: f64,
}

impl Workload for FlowChurn {
    type State = State;

    fn setup(&self, tracer: Option<&SharedTracer>) -> State {
        let t = Instant::now();
        let policy = Policy::parse(&script()).expect("generated script parses");
        let cfg = NicConfig::agilio_cx_40g();
        let pipeline = FlowValvePipeline::compile(&policy, TreeParams::default(), &cfg)
            .expect("generated script compiles");
        let compile_s = t.elapsed().as_secs_f64();
        let nic = match tracer {
            Some(tr) => SmartNic::new(
                cfg,
                Box::new(TimedDecider::new(
                    pipeline,
                    shadow_classifier(&policy, TreeParams::default()),
                    tr.clone(),
                )),
            ),
            None => SmartNic::new(cfg, Box::new(pipeline)),
        };
        let cbr = CbrProcess::new(BitRate::from_bps(PPS * u64::from(FRAME) * 8), FRAME);
        let phase = super::start_phases(self.params.seed, 1, cbr.gap());
        let procs: Vec<Box<dyn ArrivalProcess>> = vec![Box::new(cbr)];
        let mut run = OpenLoop::new(
            nic,
            procs,
            &phase,
            ChurnFlows::new(self.params.seed),
            self.params.seed,
        );
        let horizon = Nanos::from_micros(self.params.scaled(HORIZON_US, 2 * WARMUP_US));
        // Traced set-ups trace the prefix too: the decider inside the NIC
        // cannot tell prefix from pass, and per-packet means must cover
        // the same packets at every boundary.
        run.run_until(Nanos::from_micros(WARMUP_US), tracer, |_| {});
        State {
            run,
            horizon,
            compile_s,
        }
    }

    fn pass(&self, state: State, tracer: Option<&SharedTracer>) -> PassOutcome {
        let State {
            mut run,
            horizon,
            compile_s,
        } = state;
        let stretch = run.run_until(horizon, tracer, |_| {});
        let mut out = PassOutcome {
            attempted: stretch.packets,
            failed: run.failed,
            host_ns: stretch.host_ns,
            chunk_ns_per_pkt: stretch.chunk_ns_per_pkt,
            compile_s,
            ..PassOutcome::default()
        };
        let mut sim = SimCounters::default();
        sim.read_nic(&mut run.nic, horizon);
        sim.delay_p99_ns = run.delay.quantile(0.99);
        sim.delay_samples = run.delay.count();

        // Ideal allocation: every leaf gets exactly what it is offered.
        // The root divides 40 G by weight (1..4, total 160), so the
        // smallest share is 250 Mbit/s; the 5.4 Gbit/s of wire load spread
        // over 64 leaves offers no leaf more than ~95 Mbit/s. No leaf is
        // ever out of tokens, so any packet not forwarded is an error.
        let framing = run.nic.config().framing;
        let tree = run
            .nic
            .decider_as::<FlowValvePipeline>()
            .expect("pipeline installed")
            .tree()
            .clone();
        let per_pkt_bps = framing.wire_bits(u64::from(FRAME)) as f64 / horizon.as_secs_f64();
        sim.sim_err_pct = (0..LEAVES)
            .map(|k| {
                let c = tree
                    .counters(flowvalve::label::ClassId(100 + k))
                    .unwrap_or_default();
                let passed = c.forwarded + c.borrowed;
                let offered = run.flows.offered[k as usize];
                passed.abs_diff(offered) as f64 * per_pkt_bps / (ROOT_GBIT as f64 * 1e9) * 100.0
            })
            .fold(0.0, f64::max);

        out.check(sim.nic_conserves_packets(), || {
            format!("NIC packet conservation broken: {:?}", sim.nic)
        });
        out.check(sim.nic.tx_packets == sim.nic.offered, || {
            format!("everything should be admitted: {:?}", sim.nic)
        });
        out.sim = sim;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn generated_script_yields_96_rules_and_64_leaves() {
        let policy = Policy::parse(&script()).expect("parses");
        assert_eq!(policy.filters.len(), 96);
        let (tree, rules, default) = policy.compile(TreeParams::default()).expect("compiles");
        assert_eq!(rules.len(), 96);
        assert!(default.is_none());
        assert_eq!(tree.len(), 65);
        let leaves = policy.classes.iter().filter(|c| c.parent.is_some()).count();
        assert_eq!(leaves, 64);
    }

    #[test]
    fn flows_are_distinct_and_classify_where_predicted() {
        let policy = Policy::parse(&script()).unwrap();
        let mut cls = shadow_classifier(&policy, TreeParams::default());
        let mut residue = 0;
        for i in (0..FLOWS).step_by(97).chain([FLOWS - 1]) {
            let (key, leaf) = flow(i);
            let label = cls.classify(&key, VfPort(0)).0.expect("every flow matches");
            assert_eq!(label.leaf().0, 100 + leaf, "flow {i}");
            residue += u64::from((i >> 8) as u8 <= 31);
        }
        assert!(residue > 0);
        let all: HashSet<FlowKey> = (0..FLOWS).map(|i| flow(i).0).collect();
        assert_eq!(all.len() as u64, FLOWS);
    }

    #[test]
    fn flow_draw_is_a_function_of_the_seed() {
        let draw = |seed| {
            let mut f = ChurnFlows::new(seed);
            (0..64).map(|_| f.pick(0).0).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }
}
