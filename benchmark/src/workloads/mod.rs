//! The five workloads and what they share: the pass contract, the exact
//! simulated counters every pass must repeat, and the benchmark's own
//! open-loop merge loop.
//!
//! Work per pass is fixed in *simulated* terms (a horizon or a decision
//! count), never in wall time, so the simulated results of every pass of
//! one workload at one seed are identical and only host time varies.

pub mod demo_observed;
pub mod flow_churn;
pub mod sat_64b;
pub mod tcp_closed_loop;
pub mod wallclock_2t;

use std::cell::{Cell, RefCell};
use std::time::Instant;

use flowvalve::pipeline::FlowValvePipeline;
use netstack::flow::FlowKey;
use netstack::gen::ArrivalProcess;
use netstack::packet::{AppId, Packet, PacketIdGen, VfPort};
use np_sim::nic::{NicStats, RxOutcome, SmartNic};
use sim_core::rng::SimRng;
use sim_core::stats::Histogram;
use sim_core::time::Nanos;

use crate::trace::{sample_kind, Sample, SharedTracer};

/// Workload names, in report order. Final: results are keyed by them.
pub const NAMES: [&str; 5] = [
    "demo_observed",
    "sat_64B",
    "flow_churn",
    "tcp_closed_loop",
    "wallclock_2t",
];

/// Packets per chunk. Every pass of one workload at one seed does the
/// same work in its `i`-th chunk, so the run can take each chunk's
/// fastest observation over its passes (see `runner`). A chunk lasts
/// 1-8 ms: short enough that some pass finds the host quiet during it.
pub const CHUNK: u64 = 8_192;

/// Counts calls made from inside a loop that belongs to the program and
/// stamps the host clock every [`CHUNK`] of them: the only way to cut
/// such a pass into chunks from outside.
#[derive(Default)]
pub struct ChunkClock {
    calls: Cell<u64>,
    stamps: RefCell<Vec<Instant>>,
}

impl ChunkClock {
    #[inline]
    pub fn tick(&self) {
        let calls = self.calls.get() + 1;
        self.calls.set(calls);
        if calls.is_multiple_of(CHUNK) {
            self.stamps.borrow_mut().push(Instant::now());
        }
    }

    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Host ns per call of each full chunk since `begin`.
    pub fn chunk_ns_per_call(&self, begin: Instant) -> Vec<f64> {
        let stamps = self.stamps.borrow();
        std::iter::once(&begin)
            .chain(stamps.iter())
            .zip(stamps.iter())
            .map(|(a, b)| (*b - *a).as_nanos() as f64 / CHUNK as f64)
            .collect()
    }
}

/// Inputs common to every workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Params {
    /// Sets source start phases, the `flow_churn` flow draw and
    /// `Scenario::seed`. The program under test never sees it, only the
    /// packets generated from it.
    pub seed: u64,
    /// Pass size divisor: 1 for measurement, 50 for `--smoke`.
    pub shrink: u64,
}

impl Params {
    /// `full / shrink`, at least `floor`.
    pub fn scaled(&self, full: u64, floor: u64) -> u64 {
        (full / self.shrink.max(1)).max(floor)
    }
}

/// Simulated results of one pass. Every field is a pure function of the
/// workload and the seed, so two passes — traced or not — must compare
/// equal; a pass that does not fails whole. Fields a workload has no
/// source for stay zero.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimCounters {
    pub nic: NicStats,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub dcache_hits: u64,
    pub dcache_misses: u64,
    pub epoch_rolls: u64,
    pub forwarded: u64,
    pub borrowed: u64,
    pub lock_try_acquired: u64,
    pub lock_try_failed: u64,
    pub lock_wait_ns: u64,
    /// Worker-pool utilization over the horizon, parts per million.
    pub worker_util_ppm: u64,
    /// p99 one-way delay of transmitted packets (simulated ns).
    pub delay_p99_ns: u64,
    pub delay_samples: u64,
    /// Fidelity error, see each workload's `sim_err_pct`.
    pub sim_err_pct: f64,
    /// Simulated packet rate on the wire (`sat_64B`).
    pub sim_mpps: f64,
    pub audit_records: u64,
    pub audit_violations: u64,
    /// Admitted rate against the root rate, on the wall clock
    /// (`wallclock_2t`; the one field that does not repeat).
    pub admitted_rate_err_pct: f64,
    /// Closed-loop only.
    pub delivered: u64,
    pub lost: u64,
    pub jain_fairness: f64,
}

impl SimCounters {
    /// Fills the NIC- and pipeline-side counters from a finished NIC.
    pub fn read_nic(&mut self, nic: &mut SmartNic, horizon: Nanos) {
        self.nic = nic.stats();
        let locks = nic.lock_stats();
        self.lock_try_acquired = locks.try_acquired;
        self.lock_try_failed = locks.try_failed;
        self.lock_wait_ns = locks.wait_total.as_nanos();
        self.worker_util_ppm = (nic.worker_utilization(horizon) * 1e6).round() as u64;
        if let Some(p) = nic.decider_as::<FlowValvePipeline>() {
            let cache = p.cache_stats();
            self.cache_hits = cache.hits;
            self.cache_misses = cache.misses;
            (self.dcache_hits, self.dcache_misses) = p.decision_cache_stats();
            let tree = p.tree();
            self.epoch_rolls = tree.epoch();
            for id in tree.class_ids() {
                if let Some(c) = tree.counters(id) {
                    self.forwarded += c.forwarded;
                    self.borrowed += c.borrowed;
                }
            }
        }
    }

    /// `offered = rx_drop + sched_drop + tail_drop + fault_drop + tx`.
    pub fn nic_conserves_packets(&self) -> bool {
        let n = &self.nic;
        n.offered == n.rx_drops + n.sched_drops + n.tail_drops + n.fault_drops + n.tx_packets
    }
}

/// What one pass reports.
#[derive(Debug, Clone, Default)]
pub struct PassOutcome {
    /// Packets offered (decisions, on `wallclock_2t`) in the timed section.
    pub attempted: u64,
    /// Of those, how many broke a per-packet output check.
    pub failed: u64,
    /// Host nanoseconds of the timed section.
    pub host_ns: u64,
    /// Host ns per packet of each [`CHUNK`]-packet chunk, in the order
    /// the pass did them.
    pub chunk_ns_per_pkt: Vec<f64>,
    /// Threads that each did every chunk, at once (0 reads as 1): the
    /// aggregate rate is `lanes / chunk cost`.
    pub lanes: u64,
    pub sim: SimCounters,
    /// Host seconds spent in `Policy::parse` + compile during set-up.
    pub compile_s: f64,
    /// Broken invariants, in words; any entry makes the run incorrect.
    pub problems: Vec<String>,
}

impl PassOutcome {
    pub fn ns_per_pkt(&self) -> f64 {
        self.host_ns as f64 / self.attempted.max(1) as f64
    }

    pub fn pkts_per_s(&self) -> f64 {
        self.attempted as f64 * 1e9 / self.host_ns.max(1) as f64
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

/// One workload: set-up builds fresh state (parse, compile, construct,
/// warm-up prefix) and is timed by the caller as `setup_s`; `pass`
/// consumes that state, times its own measured section, and verifies its
/// outputs. With a tracer the pass takes spans; without, it takes none.
pub trait Workload {
    type State;
    fn setup(&self, tracer: Option<&SharedTracer>) -> Self::State;
    fn pass(&self, state: Self::State, tracer: Option<&SharedTracer>) -> PassOutcome;
}

/// An arrival process whose first packet is delayed by a seed-drawn
/// phase; afterwards it is the wrapped process unchanged.
pub struct Phased<P> {
    pub inner: P,
    pub phase: Nanos,
}

impl<P: ArrivalProcess> ArrivalProcess for Phased<P> {
    fn next_arrival(&mut self, rng: &mut SimRng) -> (Nanos, u32) {
        let (gap, len) = self.inner.next_arrival(rng);
        let phase = std::mem::replace(&mut self.phase, Nanos::ZERO);
        (gap + phase, len)
    }
}

/// Start phases for `n` sources, each below `max`, drawn from `seed`.
pub fn start_phases(seed: u64, n: usize, max: Nanos) -> Vec<Nanos> {
    let mut rng = SimRng::seed(seed ^ 0x5EED_0FF5);
    (0..n)
        .map(|_| Nanos::from_nanos(rng.range(0, max.as_nanos().max(1))))
        .collect()
}

/// Which flow a source's next packet belongs to.
pub trait FlowPick {
    fn pick(&mut self, source: usize) -> (FlowKey, AppId, VfPort);
}

/// One fixed flow per source.
pub struct FixedFlows(pub Vec<(FlowKey, AppId, VfPort)>);

impl FlowPick for FixedFlows {
    #[inline]
    fn pick(&mut self, source: usize) -> (FlowKey, AppId, VfPort) {
        self.0[source]
    }
}

/// The benchmark's own open-loop driver: the same time-ordered merge
/// `np_sim::harness::run_open_loop` and `fv demo` perform, resumable (so a
/// warm-up prefix can run in set-up) and, when traced, with span
/// boundaries around generation and `SmartNic::rx`.
pub struct OpenLoop<F> {
    pub nic: SmartNic,
    procs: Vec<Box<dyn ArrivalProcess>>,
    next: Vec<(Nanos, u32)>,
    pub flows: F,
    rng: SimRng,
    ids: PacketIdGen,
    /// One-way delay of transmitted packets, as the harness records it.
    pub delay: Histogram,
    /// Packets whose `Transmit` outcome was impossible: on the wire
    /// before they arrived, or overtaking an earlier packet of their VF.
    pub failed: u64,
    last_wire: [Nanos; 256],
    /// Per source: frame bits whose last bit left the wire in
    /// `(tally_from, tally_until]`.
    pub tally_bits: Vec<u64>,
    pub tally_from: Nanos,
    pub tally_until: Nanos,
}

/// Host-side result of one `OpenLoop::run_until` call.
#[derive(Debug, Default)]
pub struct Stretch {
    pub packets: u64,
    pub host_ns: u64,
    pub chunk_ns_per_pkt: Vec<f64>,
}

impl<F: FlowPick> OpenLoop<F> {
    /// `phases[i]` delays source `i`'s first packet.
    pub fn new(
        nic: SmartNic,
        mut procs: Vec<Box<dyn ArrivalProcess>>,
        phases: &[Nanos],
        flows: F,
        rng_seed: u64,
    ) -> Self {
        let mut rng = SimRng::seed(rng_seed);
        let next = procs
            .iter_mut()
            .zip(phases)
            .map(|(p, &phase)| {
                let (gap, len) = p.next_arrival(&mut rng);
                (phase + gap, len)
            })
            .collect();
        let sources = procs.len();
        OpenLoop {
            nic,
            procs,
            next,
            flows,
            rng,
            ids: PacketIdGen::new(),
            delay: Histogram::new_latency_ns(),
            failed: 0,
            last_wire: [Nanos::ZERO; 256],
            tally_bits: vec![0; sources],
            tally_from: Nanos::ZERO,
            tally_until: Nanos::MAX,
        }
    }

    /// Offers every packet arriving before `until`, in time order (ties by
    /// source index). `tick` sees each arrival time before its packet is
    /// offered (the virtual-time sampler hangs here).
    pub fn run_until(
        &mut self,
        until: Nanos,
        tracer: Option<&SharedTracer>,
        mut tick: impl FnMut(Nanos),
    ) -> Stretch {
        let mut out = Stretch::default();
        if let Some(tr) = tracer {
            tr.borrow_mut().own_loop = true;
        }
        let begin = Instant::now();
        let mut chunk_begin = begin;
        loop {
            // Ids are sequential, so the next one is known before it is drawn.
            let kind = tracer.and_then(|_| sample_kind(self.ids.issued()));
            let spans = tracer.filter(|_| kind == Some(Sample::Full));
            let r0 = now_if(kind.is_some());
            let (idx, &(t, len)) = self
                .next
                .iter()
                .enumerate()
                .min_by_key(|&(i, &(t, _))| (t, i))
                .expect("at least one source");
            if t >= until {
                break;
            }
            let id = self.ids.next_id();
            let ra = now_if(spans.is_some());
            let (flow, app, vf) = self.flows.pick(idx);
            let pkt = Packet::new(id, flow, len, app, vf, t);
            let (gap, next_len) = self.procs[idx].next_arrival(&mut self.rng);
            self.next[idx] = (t + gap, next_len);
            tick(t);
            let r1 = now_if(spans.is_some());
            let outcome = self.nic.rx(&pkt, t);
            let r2 = now_if(spans.is_some());
            let rc = now_if(spans.is_some());
            if let RxOutcome::Transmit {
                wire_done,
                delivered,
            } = outcome
            {
                self.delay.record((delivered - t).as_nanos());
                let last = &mut self.last_wire[vf.0 as usize];
                if wire_done < t || wire_done <= *last {
                    self.failed += 1;
                }
                *last = wire_done;
                if wire_done > self.tally_from && wire_done <= self.tally_until {
                    self.tally_bits[idx] += pkt.frame_bits();
                }
            }
            out.packets += 1;
            if out.packets % CHUNK == 0 {
                let now = Instant::now();
                out.chunk_ns_per_pkt
                    .push((now - chunk_begin).as_nanos() as f64 / CHUNK as f64);
                chunk_begin = now;
            }
            if let (Some(tr), Some(r0)) = (tracer, r0) {
                let r3 = Instant::now();
                match (ra, r1, r2, rc) {
                    (Some(ra), Some(r1), Some(r2), Some(rc)) => {
                        tr.borrow_mut().fold_packet(id, [r0, ra, r1, r2, rc, r3])
                    }
                    _ => tr.borrow_mut().fold_light(id, r0, r3),
                }
            }
        }
        out.host_ns = begin.elapsed().as_nanos() as u64;
        out
    }
}

/// `Instant::now()` only when asked: the untraced loop takes no reads.
#[inline]
fn now_if(on: bool) -> Option<Instant> {
    on.then(Instant::now)
}

#[cfg(test)]
mod tests {
    use super::flow_churn::FlowChurn;
    use super::sat_64b::Sat64B;
    use super::tcp_closed_loop::TcpClosedLoop;
    use super::*;
    use crate::trace::{Layer, Tracer};

    const SMALL: Params = Params {
        seed: 5,
        shrink: 50,
    };

    #[test]
    fn start_phases_are_a_function_of_the_seed() {
        let max = Nanos::from_nanos(1_000);
        assert_eq!(start_phases(9, 4, max), start_phases(9, 4, max));
        assert_ne!(start_phases(9, 4, max), start_phases(10, 4, max));
        assert!(start_phases(9, 64, max).iter().all(|&p| p < max));
    }

    #[test]
    fn phased_delays_only_the_first_arrival() {
        let mut p = Phased {
            inner: netstack::gen::CbrProcess::new(sim_core::units::BitRate::from_gbps(1.0), 1250),
            phase: Nanos::from_nanos(123),
        };
        let mut rng = SimRng::seed(0);
        assert_eq!(p.next_arrival(&mut rng).0, Nanos::from_nanos(10_123));
        assert_eq!(p.next_arrival(&mut rng).0, Nanos::from_nanos(10_000));
    }

    /// One untraced and one traced pass of `w`; the traced pass must have
    /// recorded decider spans.
    fn with_and_without_tracer<W: Workload>(w: &W) -> (PassOutcome, PassOutcome) {
        let plain = w.pass(w.setup(None), None);
        let tracer = Tracer::shared();
        let traced = w.pass(w.setup(Some(&tracer)), Some(&tracer));
        assert!(tracer.borrow().count(Layer::Decide) > 0);
        assert!(plain.problems.is_empty(), "{:?}", plain.problems);
        assert!(traced.problems.is_empty(), "{:?}", traced.problems);
        (plain, traced)
    }

    /// `TimedDecider` is transparent: verdicts, NIC counters, cache
    /// statistics and the delay distribution with the wrapper equal those
    /// without — on the benchmark's own loop...
    #[test]
    fn timed_decider_is_transparent_on_the_own_loop() {
        let (plain, traced) = with_and_without_tracer(&FlowChurn { params: SMALL });
        assert_eq!(plain.sim, traced.sim);
        assert_eq!(plain.attempted, traced.attempted);
        assert!(plain.sim.nic.tx_packets > 0 && plain.sim.delay_p99_ns > 0);
    }

    /// ...inside the program's closed loop...
    #[test]
    fn timed_decider_is_transparent_inside_hostsim() {
        let (plain, traced) = with_and_without_tracer(&TcpClosedLoop { params: SMALL });
        assert_eq!(plain.sim, traced.sim);
        assert!(plain.sim.delivered > 0);
    }

    /// ...and the benchmark's merge loop is a faithful mirror of
    /// `run_open_loop`: the traced `sat_64B` pass (mirror + wrapper)
    /// reproduces the untraced one (harness) counter for counter.
    #[test]
    fn own_loop_mirrors_the_harness() {
        let (plain, traced) = with_and_without_tracer(&Sat64B { params: SMALL });
        assert_eq!(plain.sim, traced.sim);
        assert_eq!(plain.attempted, traced.attempted);
        assert!(plain.sim.nic.rx_drops > 0 && plain.sim.sim_mpps > 10.0);
    }
}
