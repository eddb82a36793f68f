//! `wallclock_2t` — real threads on real atomics.
//!
//! `min(2, nproc)` OS threads share one `Arc<SchedulingTree>` (8 equal
//! leaves under a 40 G root). Each owns a 1024-entry `Classifier`, cycles
//! 64 flows, and per packet does `Classifier::classify_at` →
//! `SchedulingTree::schedule` with `RealExec`, reading one shared
//! `WallClock`. The offered load (every decision asks for 12 000 wire
//! bits) is several times the root rate, so the tree admits at its rate
//! and refuses the rest.
//!
//! It is the only workload where the scheduler's buckets, counters and
//! try-locks are contended by concurrent threads — the paper's parallel
//! scheduling claim — and the only one where host time *is* the
//! scheduler's clock: nothing here is simulated, so nothing repeats
//! exactly and results are held to their bounds only.

use std::sync::{Arc, Barrier};
use std::time::Instant;

use classifier::{CacheResult, Classifier};
use flowvalve::frontend::Policy;
use flowvalve::label::QosLabel;
use flowvalve::sched::{RealExec, SchedVerdict};
use flowvalve::tree::{SchedulingTree, TreeParams};
use netstack::flow::FlowKey;
use netstack::packet::VfPort;
use sim_core::clock::{Clock, WallClock};
use sim_core::rng::SimRng;

use super::{Params, PassOutcome, Workload, CHUNK};
use crate::trace::{sample_kind, Layer, Sample, SharedTracer, Tracer};

const LEAVES: u16 = 8;
const FLOWS: usize = 64;
/// Flow-cache entries per worker: 16x its flows. The pipeline's default of
/// 65 536 made every set-up allocate and drop several MiB, and whether the
/// allocator handed back touched or fresh pages made `setup_s` bimodal
/// (8 ms or 12 ms) without adding anything to what this workload is for.
const CACHE_ENTRIES: usize = 1024;
const ROOT_BPS: f64 = 40e9;
/// Over-admission the output check lets pass. The tree's fixed-point
/// refill and per-leaf rounding run ~0.1 % over the root rate on the
/// reference host (reported as `flowvalve.admitted_rate_err_pct`); the
/// check is for races that admit a packet twice, which cost far more.
const RATE_SLACK: f64 = 1.01;
/// Wire bits each decision asks for (a 1500 B frame).
const WIRE_BITS: u64 = 12_000;
/// Decisions per thread in one full-size pass.
const DECISIONS: u64 = 3_000_000;

pub struct Wallclock {
    pub params: Params,
    /// Worker threads; the workload proper runs `threads_for_host()`.
    pub threads: usize,
}

/// `min(2, nproc)`: with one CPU a second thread measures the OS
/// scheduler, not the tree.
pub fn threads_for_host() -> usize {
    crate::host::nproc().min(2)
}

fn script() -> String {
    let mut s = String::from(
        "fv qdisc add dev nic0 root handle 1: fv\n\
         fv class add dev nic0 parent root classid 1:1 name root rate 40gbit\n",
    );
    for k in 0..LEAVES {
        s.push_str(&format!(
            "fv class add dev nic0 parent 1:1 classid 1:{} name c{k} weight 1\n",
            10 + k
        ));
    }
    for k in 0..LEAVES {
        s.push_str(&format!(
            "fv filter add dev nic0 prio {} match ip dport {} flowid 1:{}\n",
            1 + k,
            9000 + k,
            10 + k
        ));
    }
    s
}

struct Worker {
    classifier: Classifier<Option<QosLabel>>,
    /// Where in the 64-flow cycle this worker starts (seed-drawn).
    offset: usize,
}

pub struct State {
    tree: Arc<SchedulingTree>,
    workers: Vec<Worker>,
    flows: Vec<FlowKey>,
    decisions: u64,
    compile_s: f64,
}

/// What one worker thread brings back.
struct WorkerResult {
    admitted_bits: u64,
    hits: u64,
    chunk_ns: Vec<f64>,
    tracer: Option<Tracer>,
}

impl Workload for Wallclock {
    type State = State;

    fn setup(&self, _tracer: Option<&SharedTracer>) -> State {
        let t = Instant::now();
        let policy = Policy::parse(&script()).expect("generated script parses");
        let (tree, rules, default) = policy
            .compile(TreeParams::default())
            .expect("generated script compiles");
        let compile_s = t.elapsed().as_secs_f64();
        let mut classifier = Classifier::new(default, CACHE_ENTRIES);
        for r in rules {
            classifier.add_rule(r);
        }
        let mut rng = SimRng::seed(self.params.seed ^ 0x2_7EAD5);
        let workers = (0..self.threads)
            .map(|_| Worker {
                classifier: classifier.clone(),
                offset: rng.index(FLOWS),
            })
            .collect();
        let flows = (0..FLOWS)
            .map(|j| {
                FlowKey::udp(
                    [10, 0, 0, 1],
                    40_000 + j as u16,
                    [10, 0, 255, 1],
                    9000 + (j as u16 % LEAVES),
                )
            })
            .collect();
        State {
            tree: Arc::new(tree),
            workers,
            flows,
            decisions: self.params.scaled(DECISIONS, 4 * CHUNK),
            compile_s,
        }
    }

    fn pass(&self, state: State, tracer: Option<&SharedTracer>) -> PassOutcome {
        let State {
            tree,
            workers,
            flows,
            decisions,
            compile_s,
        } = state;
        let threads = workers.len();
        let barrier = Barrier::new(threads + 1);
        let clock = WallClock::new();
        let origin = tracer.map(|t| t.borrow().origin());
        let (flows, tree_ref, barrier_ref, clock_ref) = (&flows, &*tree, &barrier, &clock);

        let (results, host_ns) = std::thread::scope(|s| {
            let handles: Vec<_> = workers
                .into_iter()
                .enumerate()
                .map(|(k, w)| {
                    s.spawn(move || {
                        run_worker(
                            k,
                            w,
                            flows,
                            tree_ref,
                            clock_ref,
                            barrier_ref,
                            decisions,
                            origin,
                        )
                    })
                })
                .collect();
            barrier_ref.wait();
            let begin = Instant::now();
            let results: Vec<WorkerResult> = handles
                .into_iter()
                .map(|h| h.join().expect("worker thread panicked"))
                .collect();
            (results, begin.elapsed().as_nanos() as u64)
        });
        // Tokens accrue on the tree's clock, which started before the
        // threads did.
        let clock_s = clock.now().as_secs_f64();

        let total = decisions * threads as u64;
        let admitted: u64 = results.iter().map(|r| r.admitted_bits).sum();
        let hits: u64 = results.iter().map(|r| r.hits).sum();
        let elapsed_s = host_ns as f64 / 1e9;
        let mut out = PassOutcome {
            attempted: total,
            host_ns,
            // Chunk `i` is the threads' `i`-th chunks together, at their
            // mean cost: a thread that ran its chunk alone, the other
            // stalled, ran it fast, and the other's share of the mean shows
            // the stall.
            chunk_ns_per_pkt: (0..(decisions / CHUNK) as usize)
                .map(|i| results.iter().map(|r| r.chunk_ns[i]).sum::<f64>() / threads as f64)
                .collect(),
            lanes: threads as u64,
            compile_s,
            ..PassOutcome::default()
        };
        if let Some(shared) = tracer {
            let mut shared = shared.borrow_mut();
            for r in &results {
                shared.merge(r.tracer.as_ref().expect("traced worker returns its tracer"));
            }
        }

        // The tree may never admit more than its rate sustains: the root
        // rate over the elapsed time, plus the tokens it held at the start
        // — every class and every shadow bucket starts full, each with its
        // burst window at the *root* rate. Bits beyond that are failed
        // packets.
        let params = tree.params();
        let burst_bits = tree.len() as f64
            * ROOT_BPS
            * (params.burst_window + params.shadow_burst_window).as_secs_f64();
        let allowed = ROOT_BPS * RATE_SLACK * clock_s + burst_bits;
        if admitted as f64 > allowed {
            out.failed = ((admitted as f64 - allowed) / WIRE_BITS as f64).ceil() as u64;
            out.problems.push(format!(
                "admitted {admitted} bits in {clock_s:.4} s, more than 40 G sustains ({allowed:.0})"
            ));
        }
        out.sim.cache_hits = hits;
        out.sim.cache_misses = total - hits;
        out.sim.admitted_rate_err_pct =
            (admitted as f64 / elapsed_s - ROOT_BPS).abs() / ROOT_BPS * 100.0;
        out.sim.forwarded = admitted / WIRE_BITS;
        out.check(admitted > 0, || "the tree admitted nothing".to_owned());
        out
    }
}

/// One decision, untimed: clock, classify, schedule.
#[inline]
fn decide(
    w: &mut Worker,
    stripe: usize,
    flow: &FlowKey,
    tree: &SchedulingTree,
    clock: &WallClock,
    hits: &mut u64,
) -> SchedVerdict {
    let now = clock.now();
    let (label, result) = w.classifier.classify_at(stripe, flow, VfPort(0));
    *hits += u64::from(result == CacheResult::Hit);
    let label = label.expect("every flow matches a filter");
    tree.schedule(&label, WIRE_BITS, now, &mut RealExec)
}

#[allow(clippy::too_many_arguments)]
fn run_worker(
    stripe: usize,
    mut w: Worker,
    flows: &[FlowKey],
    tree: &SchedulingTree,
    clock: &WallClock,
    barrier: &Barrier,
    decisions: u64,
    trace_origin: Option<Instant>,
) -> WorkerResult {
    let mut tracer = trace_origin.map(Tracer::with_origin);
    let mut exec = RealExec;
    let mut res = WorkerResult {
        admitted_bits: 0,
        hits: 0,
        chunk_ns: Vec::new(),
        tracer: None,
    };
    barrier.wait();
    let mut chunk_begin = Instant::now();
    for n in 0..decisions {
        let flow = &flows[(w.offset + n as usize) % FLOWS];
        let kind = tracer.as_ref().and_then(|_| sample_kind(n));
        // Worker-unique packet id: decision number, stripe on top.
        let id = (stripe as u64) << 48 | n;
        let verdict = match (tracer.as_mut(), kind) {
            (Some(t), Some(Sample::Light)) => {
                let r0 = Instant::now();
                let verdict = decide(&mut w, stripe, flow, tree, clock, &mut res.hits);
                let r3 = Instant::now();
                t.fold_light(id, r0, r3);
                verdict
            }
            (None, _) | (_, None) => decide(&mut w, stripe, flow, tree, clock, &mut res.hits),
            (Some(t), Some(Sample::Full)) => {
                let r0 = Instant::now();
                let now = clock.now();
                let r1 = Instant::now();
                let (label, result) = w.classifier.classify_at(stripe, flow, VfPort(0));
                let label = label.expect("every flow matches a filter");
                let r2 = Instant::now();
                let verdict = tree.schedule(&label, WIRE_BITS, now, &mut exec);
                let r3 = Instant::now();
                let r4 = Instant::now();
                let root = t.span(Layer::Pkt, r0, r3, None, id);
                t.span(Layer::Clock, r0, r1, root, id);
                t.span(Layer::Classify, r1, r2, root, id);
                t.span(Layer::Sched, r2, r3, root, id);
                t.span(Layer::Timer, r3, r4, None, id);
                t.end_packet();
                let lookup_ns = (r2 - r1).as_nanos() as u64;
                if result == CacheResult::Hit {
                    res.hits += 1;
                    t.hit_ns += lookup_ns;
                    t.hit_n += 1;
                } else {
                    t.miss_ns += lookup_ns;
                    t.miss_n += 1;
                }
                verdict
            }
        };
        if verdict.passes() {
            res.admitted_bits += WIRE_BITS;
        }
        if (n + 1) % CHUNK == 0 {
            let now = Instant::now();
            res.chunk_ns
                .push((now - chunk_begin).as_nanos() as f64 / CHUNK as f64);
            chunk_begin = now;
        }
    }
    res.tracer = tracer;
    res
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_thread_admits_at_most_the_root_rate() {
        let w = Wallclock {
            params: Params {
                seed: 1,
                shrink: 50,
            },
            threads: 1,
        };
        let out = w.pass(w.setup(None), None);
        assert!(out.problems.is_empty(), "{:?}", out.problems);
        assert_eq!(out.failed, 0);
        assert_eq!(out.attempted, DECISIONS / 50);
        assert_eq!(out.chunk_ns_per_pkt.len() as u64, out.attempted / CHUNK);
        // 64 flows against a warm-able cache: all but the first touch hit.
        assert_eq!(out.sim.cache_misses, FLOWS as u64);
    }

    #[test]
    fn start_offsets_follow_the_seed() {
        let offsets = |seed| {
            let w = Wallclock {
                params: Params { seed, shrink: 50 },
                threads: 2,
            };
            w.setup(None)
                .workers
                .iter()
                .map(|w| w.offset)
                .collect::<Vec<_>>()
        };
        assert_eq!(offsets(5), offsets(5));
        assert_ne!(offsets(5), offsets(6));
    }
}
