//! The measurement protocol: back-to-back passes of fixed simulated work,
//! each from freshly constructed state, and the quiet pass assembled from
//! them; then, for the traced run, reference passes, traced passes and
//! the workload-specific extra passes.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use fv_telemetry::JsonValue;
use netstack::tcp::TcpConn;
use sim_core::event::EventQueue;
use sim_core::rng::SimRng;
use sim_core::time::Nanos;

use crate::host;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, Summary};
use crate::trace::{sampled_below, Layer, LayerBudget, SharedTracer, Tracer};
use crate::workloads::demo_observed::{DemoObserved, Observers};
use crate::workloads::flow_churn::FlowChurn;
use crate::workloads::sat_64b::Sat64B;
use crate::workloads::tcp_closed_loop::TcpClosedLoop;
use crate::workloads::wallclock_2t::{threads_for_host, Wallclock};
use crate::workloads::{Params, PassOutcome, Workload};

/// Fewest passes a run reports on.
const MIN_PASSES: usize = 3;

/// One run of one workload: what the last output line carries, plus the
/// spread of each host-time metric over the run's passes.
#[derive(Debug, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// `(name, value)` in dictionary order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Per-pass samples of a metric the run takes once per pass.
    pub samples: BTreeMap<&'static str, Summary>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The contract's result line.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("correct", JsonValue::Bool(self.correct())),
            ("attempted", JsonValue::UInt(self.attempted.max(1))),
            ("failed", JsonValue::UInt(self.failed)),
            (
                "metrics",
                JsonValue::obj(self.metrics.iter().map(|&(name, value)| {
                    let unit = crate::metrics::find(name).map_or("", |m| m.unit);
                    (
                        name,
                        JsonValue::obj([
                            ("value", JsonValue::Num(value)),
                            ("unit", JsonValue::Str(unit.to_owned())),
                        ]),
                    )
                })),
            ),
        ])
    }
}

/// Set-up times and pass outcomes of one stretch of passes.
#[derive(Debug, Default)]
struct Measured {
    setup_s: Vec<f64>,
    passes: Vec<PassOutcome>,
}

impl Measured {
    fn ns_per_pkt(&self) -> Vec<f64> {
        self.passes.iter().map(PassOutcome::ns_per_pkt).collect()
    }

    fn pkts_per_s(&self) -> Vec<f64> {
        self.passes.iter().map(PassOutcome::pkts_per_s).collect()
    }

    /// Each pass's median chunk cost: a blip inside a pass does not move it.
    fn p50_per_pass(&self) -> Vec<f64> {
        self.passes
            .iter()
            .map(|p| median(&p.chunk_ns_per_pkt))
            .collect()
    }

    /// Every chunk of every pass.
    fn chunks(&self) -> Vec<f64> {
        self.passes
            .iter()
            .flat_map(|p| p.chunk_ns_per_pkt.iter().copied())
            .collect()
    }
}

/// A traced run's figure for a cost: the lower quartile over passes.
///
/// Interference on a shared host is one-sided (a neighbour slows the
/// memory-bound passes; the CPU-only calibration kernel barely notices),
/// so the fast quarter of the passes is steadier than their median. The
/// traced run compares spans with untraced passes made alongside them,
/// and this figure puts both at the same level of interference.
fn fast_quartile(costs: &[f64]) -> f64 {
    Summary::of(costs).map_or(0.0, |s| s.q1)
}

/// The same for a rate: the upper quartile over passes.
fn fast_quartile_rate(rates: &[f64]) -> f64 {
    Summary::of(rates).map_or(0.0, |s| s.q3)
}

impl Measured {
    /// The quiet pass: chunk by chunk, the fastest observation over the
    /// run's passes, in ns per packet.
    ///
    /// Every pass does the same work in its `i`-th chunk, so the run has
    /// timed that work once per pass, and the smallest of those timings
    /// is the one the host disturbed least. On the shared reference host
    /// whole passes, and at times whole runs, are 20-40 % slow; a chunk
    /// lasts milliseconds, and among a run's passes each chunk meets a
    /// quiet moment. Assembled from those, the quiet pass covers all the
    /// work of a pass, and a change to the program moves it as it moves
    /// every pass.
    fn quiet_chunks(&self) -> Vec<f64> {
        let chunks = |p: &PassOutcome| p.chunk_ns_per_pkt.len();
        let n = self.passes.iter().map(chunks).min().unwrap_or(0);
        (0..n)
            .map(|i| {
                self.passes
                    .iter()
                    .map(|p| p.chunk_ns_per_pkt[i])
                    .fold(f64::INFINITY, f64::min)
            })
            .collect()
    }

    /// `(pkts_per_s, ns_per_pkt_p50)` of the run: packets per second, all
    /// lanes together, and the cost of the median chunk.
    ///
    /// `repeatable` passes give the quiet pass. Passes on the wall clock
    /// repeat only statistically, and there a disturbance can speed a
    /// chunk up (a thread whose peer is stalled runs uncontended), so the
    /// fastest observation is no estimate of anything; their figure is
    /// the lower decile of all chunks of all passes, for both metrics.
    /// Zeros when a pass has no chunk (`verify` reports that).
    fn quiet_pass(&self, repeatable: bool) -> (f64, f64) {
        if self.passes.iter().any(|p| p.chunk_ns_per_pkt.is_empty()) {
            return (0.0, 0.0);
        }
        let lanes = self.passes[0].lanes.max(1) as f64;
        let quiet = if repeatable {
            self.quiet_chunks()
        } else {
            vec![percentile(&self.chunks(), 10.0)]
        };
        let mean = quiet.iter().sum::<f64>() / quiet.len() as f64;
        (lanes * 1e9 / mean, median(&quiet))
    }
}

impl Measured {
    /// One set-up and one pass from the state it built. Construction is
    /// timed separately, outside the pass's own timed section.
    fn run_one<W: Workload>(&mut self, w: &W, tracer: Option<&SharedTracer>) -> &PassOutcome {
        let t = Instant::now();
        let state = w.setup(tracer);
        self.setup_s.push(t.elapsed().as_secs_f64());
        self.passes.push(w.pass(state, tracer));
        self.passes.last().expect("just pushed")
    }
}

/// Untraced passes back to back, each from freshly constructed state,
/// until `budget` is spent and at least `min_passes` are done.
fn measure<W: Workload>(w: &W, budget: Duration, min_passes: usize) -> Measured {
    let begin = Instant::now();
    let mut m = Measured::default();
    let mut last = Duration::ZERO;
    // Stops short of the budget rather than past it: the run is as long as
    // asked, whatever the pass size.
    while m.passes.len() < min_passes || begin.elapsed() + last <= budget {
        let t = Instant::now();
        m.run_one(w, None);
        last = t.elapsed();
    }
    m
}

/// Folds per-pass failures and invariant breaks into `result`. With
/// `repeatable`, a pass whose simulated counters differ from the first
/// pass's fails whole.
fn verify(result: &mut RunResult, passes: &[&PassOutcome], repeatable: bool) {
    let Some(first) = passes.first() else {
        result.problems.push("no pass ran".to_owned());
        return;
    };
    for (i, p) in passes.iter().enumerate() {
        result.attempted += p.attempted;
        result.failed += p.failed;
        for problem in &p.problems {
            result.problems.push(format!("pass {i}: {problem}"));
        }
        if p.chunk_ns_per_pkt.is_empty() {
            result
                .problems
                .push(format!("pass {i}: too short for one chunk"));
        }
        if repeatable && p.sim != first.sim {
            result.failed += p.attempted - p.failed.min(p.attempted);
            result.problems.push(format!(
                "pass {i}: simulated counters differ from pass 0: {:?} vs {:?}",
                p.sim, first.sim
            ));
        }
    }
}

fn summarise(result: &mut RunResult, name: &'static str, samples: &[f64]) {
    if let Some(s) = Summary::of(samples) {
        result.samples.insert(name, s);
    }
}

/// `--trace 0`: the end-to-end metrics, from untraced passes only.
fn run_plain<W: Workload>(w: &W, seconds: f64, repeatable: bool) -> RunResult {
    let m = measure(w, Duration::from_secs_f64(seconds), MIN_PASSES);
    let mut result = RunResult::default();
    verify(
        &mut result,
        &m.passes.iter().collect::<Vec<_>>(),
        repeatable,
    );
    // The samples shown beside each figure are per pass: how disturbed
    // the host was. The figures themselves are the quiet pass's.
    summarise(&mut result, "setup_s", &m.setup_s);
    summarise(&mut result, "pkts_per_s", &m.pkts_per_s());
    summarise(&mut result, "ns_per_pkt_p50", &m.p50_per_pass());
    let (pkts_per_s, ns_per_pkt_p50) = m.quiet_pass(repeatable);
    let values = [
        // Set-up is the same work every time too: its fastest timing.
        m.setup_s.iter().copied().fold(f64::INFINITY, f64::min),
        pkts_per_s,
        ns_per_pkt_p50,
        host::peak_rss_mb(),
    ];
    result.metrics = END_TO_END.iter().map(|d| d.name).zip(values).collect();
    result
}

/// Where the spans of a traced run come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Spans {
    /// The benchmark's own merge loop: `pkt`, `gen`, `nic.rx` and, inside
    /// `rx`, the decider's spans.
    OwnLoop,
    /// The loop belongs to the program (`hostsim::engine::run`): only the
    /// decider's spans exist.
    DeciderOnly,
    /// Worker threads calling classifier and tree directly
    /// (`wallclock_2t`): `pkt`, `clock`, `classify`, `schedule`.
    Threads,
}

/// How a traced run splits its time and which extra passes it makes.
struct TracePlan<'a> {
    /// Share of `--seconds` for the alternating reference and traced
    /// passes; the rest is for the extras.
    paired_share: f64,
    spans: Spans,
    /// Extra passes: fills in per-layer values, may report problems.
    extras: &'a mut dyn FnMut(Duration, &mut Layers, &mut RunResult),
}

type Layers = BTreeMap<&'static str, f64>;

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// `--trace 1`: the per-layer metrics.
fn run_traced<W: Workload>(
    w: &W,
    name: &str,
    seed: u64,
    seconds: f64,
    repeatable: bool,
    plan: TracePlan<'_>,
) -> RunResult {
    let share = |s: f64| Duration::from_secs_f64(seconds * s);
    let calib_before = host::calib_ns(5);

    // Reference (untraced) and traced passes alternate, so whatever the
    // host does during these seconds it does to both. One tracer per
    // traced pass, so a pass a neighbour disturbed can be told from a
    // quiet one, as among the untraced passes.
    let begin = Instant::now();
    let mut reference = Measured::default();
    let mut traced = Measured::default();
    let mut budgets = Vec::new();
    let mut first_tracer = None;
    while budgets.len() < MIN_PASSES || begin.elapsed() < share(plan.paired_share) {
        reference.run_one(w, None);
        let tracer = Tracer::shared();
        let attempted = traced.run_one(w, Some(&tracer)).attempted;
        budgets.push(match plan.spans {
            Spans::OwnLoop => {
                let t = tracer.borrow();
                LayerBudget::fold(&t, t.count(Layer::Pkt))
            }
            // Ids count from zero in every pass, one per packet sent.
            Spans::DeciderOnly => LayerBudget::fold(&tracer.borrow(), sampled_below(attempted)),
            Spans::Threads => LayerBudget::fold_threads(&tracer.borrow()),
        });
        first_tracer.get_or_insert(tracer);
    }
    let b = LayerBudget::across(&budgets, fast_quartile);

    let mut result = RunResult::default();
    let all: Vec<&PassOutcome> = reference.passes.iter().chain(&traced.passes).collect();
    verify(&mut result, &all, repeatable);

    // Counted layers: ratios measured where the work happens, read from
    // the first reference pass (every pass repeats them exactly).
    let mut layers: Layers = PER_LAYER.iter().map(|d| (d.name, 0.0)).collect();
    let sim = &reference.passes[0].sim;
    let n = &sim.nic;
    // Packets per pass: the NIC's count, or the decisions where there is
    // no NIC.
    let offered = if n.offered > 0 {
        n.offered
    } else {
        reference.passes[0].attempted.max(1)
    };
    let lookups = sim.cache_hits + sim.cache_misses;
    layers.extend([
        ("np_sim.rx_drop_share", ratio(n.rx_drops, offered)),
        ("np_sim.tail_drop_share", ratio(n.tail_drops, offered)),
        (
            "np_sim.worker_utilization",
            sim.worker_util_ppm as f64 / 1e6,
        ),
        (
            "np_sim.lock_wait_ns_per_pkt",
            ratio(sim.lock_wait_ns, offered),
        ),
        (
            "np_sim.lock_try_fail_share",
            ratio(
                sim.lock_try_failed,
                sim.lock_try_failed + sim.lock_try_acquired,
            ),
        ),
        ("classifier.hit_ratio", ratio(sim.cache_hits, lookups)),
        ("flowvalve.sched_drop_share", ratio(n.sched_drops, offered)),
        (
            "flowvalve.borrowed_share",
            ratio(sim.borrowed, sim.borrowed + sim.forwarded),
        ),
        (
            "flowvalve.decision_cache_hit_ratio",
            ratio(sim.dcache_hits, sim.dcache_hits + sim.dcache_misses),
        ),
        ("flowvalve.epoch_rolls", sim.epoch_rolls as f64),
        ("audit.records", sim.audit_records as f64),
        ("audit.violations", sim.audit_violations as f64),
        (
            "hostsim.loss_share",
            ratio(sim.lost, sim.lost + sim.delivered),
        ),
        ("hostsim.jain_fairness", sim.jain_fairness),
        ("sim.err_pct", sim.sim_err_pct),
        ("flowvalve.admitted_rate_err_pct", sim.admitted_rate_err_pct),
        ("sim.delay_p99_us", sim.delay_p99_ns as f64 / 1e3),
        ("sim.mpps", sim.sim_mpps),
        (
            "flowvalve.compile_s",
            median(&all.iter().map(|p| p.compile_s).collect::<Vec<_>>()),
        ),
        (
            "host.chunk_ns_per_pkt_p95",
            percentile(&reference.chunks(), 95.0),
        ),
    ]);

    // Timed layers. `untraced` is the reference passes' median chunk cost
    // (the end-to-end `ns_per_pkt_p50` at these passes' level of
    // interference); every share below is a share of it.
    let untraced = fast_quartile(&reference.p50_per_pass());
    let untraced_pass = fast_quartile(&reference.ns_per_pkt());
    let traced_pass = fast_quartile(&traced.ns_per_pkt());
    layers.insert(
        "trace.overhead_pct",
        (traced_pass - untraced_pass) / untraced_pass * 100.0,
    );
    let decider = b.classify + b.decide_self;
    layers.extend([
        ("classifier.hit_ns_per_lookup", b.hit_ns_per_lookup),
        ("classifier.miss_ns_per_lookup", b.miss_ns_per_lookup),
        ("flowvalve.decide_self_ns_per_pkt", b.decide_self),
        ("trace.probe_scale", b.probe_scale),
        ("budget.decide_pct", decider / untraced * 100.0),
        (
            // Lookups happen only on packets that reach the decider.
            "budget.classifier_miss_pct",
            b.miss_ns_per_lookup * ratio(sim.cache_misses, offered) / untraced * 100.0,
        ),
    ]);
    let residual = match plan.spans {
        Spans::OwnLoop => {
            layers.extend([
                ("netstack.gen_ns_per_pkt", b.gen),
                ("np_sim.harness_self_ns_per_pkt", b.loop_self),
                ("np_sim.rx_self_ns_per_pkt", b.rx_self),
            ]);
            untraced - b.total()
        }
        Spans::Threads => untraced - b.total(),
        Spans::DeciderOnly => {
            // Everything that is not the decider — engine, event queue,
            // TCP, and np-sim outside `decide` — is one remainder, so the
            // layers sum to the pass by construction. The residual checks
            // the tracing arithmetic instead: the traced pass should cost
            // the untraced pass plus the apparatus (one shadow lookup per
            // decided packet, four timer reads per sampled one).
            layers.insert("hostsim.run_self_ns_per_pkt", untraced - decider);
            let apparatus = b.classify + 4.0 * b.timer * b.decided_share / 7.0;
            traced_pass - untraced_pass - apparatus
        }
    };
    let total = if plan.spans == Spans::DeciderOnly {
        untraced
    } else {
        b.total()
    };
    layers.extend([
        ("budget.layers_ns_per_pkt", total),
        ("budget.residual_pct", residual / untraced * 100.0),
    ]);

    let left = Duration::from_secs_f64(seconds).saturating_sub(share(plan.paired_share));
    (plan.extras)(left, &mut layers, &mut result);

    let calib_after = host::calib_ns(5);
    layers.insert("host.calib_ns", (calib_before + calib_after) / 2.0);

    write_trace(name, seed, &first_tracer.expect("at least one traced pass"));
    result.metrics = PER_LAYER.iter().map(|d| (d.name, layers[d.name])).collect();
    result
}

/// Writes the retained spans to `benchmark/out/trace-<workload>.json`.
/// Failing to write is reported, not fatal: no metric depends on the file.
fn write_trace(name: &str, seed: u64, tracer: &SharedTracer) {
    let dir = std::path::Path::new("benchmark").join("out");
    let path = dir.join(format!("trace-{name}.json"));
    let doc = tracer.borrow().to_json(name, seed).to_compact();
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, doc)) {
        eprintln!("fv-benchmark: cannot write {}: {e}", path.display());
    }
}

/// One untraced pass of `w`; returns its cost in ns per packet and folds
/// its failures into `result`.
fn pass_cost<W: Workload>(w: &W, result: &mut RunResult) -> f64 {
    let mut m = Measured::default();
    let out = m.run_one(w, None);
    result.attempted += out.attempted;
    result.failed += out.failed;
    result.problems.extend(out.problems.iter().cloned());
    out.ns_per_pkt()
}

/// `sim_core::EventQueue` churn at the closed-loop scenario's pending
/// population: hold the queue at `POPULATION` events and alternate `pop`
/// with a `schedule` a drawn delay ahead (the scenario's ACK, loss and
/// RTO distances). The population is the scenario's send rate (~3.3 M/s)
/// times its 5.2 ms RTO — every send arms a watchdog.
fn event_queue_ns_per_op(seed: u64) -> f64 {
    const POPULATION: usize = 16_384;
    const OPS: u64 = 2_000_000;
    let delays = [100_000u64, 200_000, 5_200_000];
    let mut rng = SimRng::seed(seed);
    let mut q: EventQueue<u64> = EventQueue::with_capacity(POPULATION);
    for i in 0..POPULATION as u64 {
        q.schedule(Nanos::from_nanos(rng.range(0, 5_200_000)), i);
    }
    let begin = Instant::now();
    for i in 0..OPS {
        let (now, ev) = q.pop().expect("population is held constant");
        std::hint::black_box(ev);
        q.schedule(now + Nanos::from_nanos(delays[rng.index(3)]), i);
    }
    begin.elapsed().as_nanos() as f64 / (2 * OPS) as f64
}

/// `netstack::TcpConn` cost of one send→ACK turn, one loss in 256.
fn tcp_ns_per_ack() -> f64 {
    const TURNS: u64 = 4_000_000;
    let mut conn = TcpConn::new(1_448, 10);
    let begin = Instant::now();
    for i in 0..TURNS {
        if conn.can_send() {
            let seq = conn.on_send();
            if i % 256 == 255 {
                conn.on_loss(seq);
            } else {
                conn.on_ack(seq);
            }
        }
    }
    std::hint::black_box(conn.delivered_bytes());
    begin.elapsed().as_nanos() as f64 / TURNS as f64
}

/// Plain or traced run of a workload whose traced run has no extra passes.
fn run_simple<W: Workload>(
    w: &W,
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Spans,
) -> RunResult {
    if !trace {
        return run_plain(w, seconds, true);
    }
    let plan = TracePlan {
        paired_share: 1.0,
        spans,
        extras: &mut |_, _, _| {},
    };
    run_traced(w, name, seed, seconds, true, plan)
}

/// Runs one workload as the contract's command does.
///
/// # Errors
///
/// Returns the unknown workload name.
pub fn run(name: &str, params: Params, seconds: f64, trace: bool) -> Result<RunResult, String> {
    let seed = params.seed;
    Ok(match name {
        "demo_observed" => {
            let at = |observers| DemoObserved { params, observers };
            let w = at(Observers::Audit);
            if !trace {
                return Ok(run_plain(&w, seconds, true));
            }
            // Observer toggles: the pass cost at each level, levels
            // interleaved so drift hits all alike; a layer's price is the
            // difference to the level below.
            let mut extras = |left: Duration, layers: &mut Layers, result: &mut RunResult| {
                const LEVELS: [Observers; 5] = [
                    Observers::Bare,
                    Observers::Telemetry,
                    Observers::Audit,
                    Observers::Probe,
                    Observers::Sampler,
                ];
                let begin = Instant::now();
                let mut cost: [Vec<f64>; 5] = Default::default();
                while cost[4].len() < 2 || begin.elapsed() < left {
                    for (level, samples) in LEVELS.iter().zip(&mut cost) {
                        samples.push(pass_cost(&at(*level), result));
                    }
                }
                let c = cost.map(|samples| fast_quartile(&samples));
                layers.extend([
                    ("telemetry.ns_per_pkt", c[1] - c[0]),
                    ("audit.ns_per_pkt", c[2] - c[1]),
                    ("probe.ns_per_pkt", c[3] - c[2]),
                    ("scope.sampler_ns_per_pkt", c[4] - c[3]),
                ]);
            };
            let plan = TracePlan {
                paired_share: 0.4,
                spans: Spans::OwnLoop,
                extras: &mut extras,
            };
            run_traced(&w, name, seed, seconds, true, plan)
        }
        "sat_64B" => run_simple(
            &Sat64B { params },
            name,
            seed,
            seconds,
            trace,
            Spans::OwnLoop,
        ),
        "flow_churn" => run_simple(
            &FlowChurn { params },
            name,
            seed,
            seconds,
            trace,
            Spans::OwnLoop,
        ),
        "tcp_closed_loop" => {
            let w = TcpClosedLoop { params };
            if !trace {
                return Ok(run_plain(&w, seconds, true));
            }
            let mut extras = |_: Duration, layers: &mut Layers, _: &mut RunResult| {
                layers.extend([
                    ("sim_core.event_ns_per_op", event_queue_ns_per_op(seed)),
                    ("netstack.tcp_ns_per_ack", tcp_ns_per_ack()),
                ]);
            };
            let plan = TracePlan {
                paired_share: 0.95,
                spans: Spans::DeciderOnly,
                extras: &mut extras,
            };
            run_traced(&w, name, seed, seconds, true, plan)
        }
        "wallclock_2t" => {
            let with = |threads| Wallclock { params, threads };
            let w = with(threads_for_host());
            if !trace {
                return Ok(run_plain(&w, seconds, false));
            }
            // Aggregate decision rate of the workload's threads against
            // one thread's, passes interleaved.
            let mut extras = |left: Duration, layers: &mut Layers, result: &mut RunResult| {
                let begin = Instant::now();
                let (mut one, mut many) = (Vec::new(), Vec::new());
                while one.len() < 2 || begin.elapsed() < left {
                    one.push(1e9 / pass_cost(&with(1), result));
                    many.push(1e9 / pass_cost(&w, result));
                }
                let (one, many) = (fast_quartile_rate(&one), fast_quartile_rate(&many));
                layers.extend([
                    ("flowvalve.decisions_per_s_1t", one),
                    ("flowvalve.scaling_eff_2t", many / (w.threads as f64 * one)),
                ]);
            };
            let plan = TracePlan {
                paired_share: 0.6,
                spans: Spans::Threads,
                extras: &mut extras,
            };
            run_traced(&w, name, seed, seconds, false, plan)
        }
        other => return Err(format!("unknown workload {other:?}")),
    })
}
