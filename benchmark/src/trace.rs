//! The traced run: spans taken from outside the program under test.
//!
//! Every span is a pair of `Instant::now()` reads around a call into a
//! public function. Spans are taken on one packet id in seven (see [`sampled`])
//! (a read pair costs tens of nanoseconds — timing every packet would
//! double the cost of the cheap workloads), counts on every packet. All
//! sampled spans fold into per-layer sums; the first [`RETAIN_PACKETS`]
//! sampled packets also keep their raw spans (`name, start, end, parent,
//! pkt id`) in memory for the trace file written at exit.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use classifier::{CacheResult, Classifier};
use flowvalve::frontend::Policy;
use flowvalve::label::QosLabel;
use flowvalve::pipeline::FlowValvePipeline;
use flowvalve::tree::TreeParams;
use fv_telemetry::JsonValue;
use netstack::packet::Packet;
use np_sim::cost::CostMeter;
use np_sim::lock::LockTable;
use np_sim::nic::{Decision, EgressDecider};
use sim_core::time::Nanos;

/// Spans are taken on bursts of [`SAMPLE_BURST`] consecutive packet ids
/// out of every [`SAMPLE_PERIOD`] — one packet in seven.
///
/// Bursts, not isolated packets: between isolated samples the timer's own
/// code and data fall out of the caches, every sampled packet pays to
/// fetch them back, and a fixed per-read correction cannot take that out
/// (on `sat_64B`, where a packet costs ~110 ns, it inflated the layer sum
/// by half). Inside a burst the timer stays warm and costs what the
/// start-up calibration measured.
///
/// Sixty-four, and not a stride of eight: the program samples its own
/// observers at power-of-two strides of the same ids (provenance capture
/// at 1 in 64) and round-robin sources repeat with period four, so
/// "every 8th id" always lands on the same source and on eight times its
/// share of audited packets. A burst of 64 covers every residue once.
pub const SAMPLE_BURST: u64 = 64;
pub const SAMPLE_PERIOD: u64 = 7 * SAMPLE_BURST;
/// Sampled packets whose raw spans are kept for the trace file.
pub const RETAIN_PACKETS: usize = 4096;

/// How a sampled packet is instrumented. Bursts alternate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sample {
    /// Every boundary: the layer *proportions* come from these.
    Full,
    /// The packet's root span only — two reads, at its edges. Every timer
    /// read drains the pipeline, which no per-read correction takes out,
    /// so a fully instrumented 110 ns packet measures half again too
    /// long; a lightly instrumented one does not. The layer self times of
    /// the full packets are scaled to sum to the light packets' cost
    /// (less the shadow lookup, which light packets pay for too).
    Light,
}

/// Whether and how packet `id` carries spans.
#[inline]
pub fn sample_kind(id: u64) -> Option<Sample> {
    if id % SAMPLE_PERIOD >= SAMPLE_BURST {
        None
    } else if (id / SAMPLE_PERIOD).is_multiple_of(2) {
        Some(Sample::Full)
    } else {
        Some(Sample::Light)
    }
}

/// Whether packet `id` is fully instrumented (all the decider looks at).
#[inline]
pub fn sampled(id: u64) -> bool {
    sample_kind(id) == Some(Sample::Full)
}

/// How many of the ids `0..n` are fully instrumented.
pub fn sampled_below(n: u64) -> u64 {
    let two = 2 * SAMPLE_PERIOD;
    n / two * SAMPLE_BURST + (n % two).min(SAMPLE_BURST)
}

/// The boundaries spans are taken at. `Pkt` is the root span of one
/// sampled packet in the benchmark's own loop; the rest are its
/// descendants (or roots, where the loop belongs to the program).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    /// One iteration of the benchmark's own merge loop.
    Pkt,
    /// `ArrivalProcess::next_arrival` + `Packet::new`.
    Gen,
    /// `SmartNic::rx`.
    Rx,
    /// The shadow `Classifier::classify_at` (tracing apparatus inside
    /// `rx`; its duration is the estimate of the pipeline's own lookup).
    Shadow,
    /// `FlowValvePipeline::decide`.
    Decide,
    /// `Clock::now` (`wallclock_2t`).
    Clock,
    /// `Classifier::classify_at` called directly (`wallclock_2t`).
    Classify,
    /// `SchedulingTree::schedule` called directly (`wallclock_2t`).
    Sched,
    /// Two back-to-back timer reads on a sampled packet: what one read
    /// costs here and now, the correction every other span needs.
    Timer,
    /// The root span of a lightly instrumented packet ([`Sample::Light`]).
    PktLight,
}

const LAYERS: usize = 10;

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Pkt => "pkt",
            Layer::Gen => "gen",
            Layer::Rx => "nic.rx",
            Layer::Shadow => "shadow_classify",
            Layer::Decide => "decide",
            Layer::Clock => "clock",
            Layer::Classify => "classify",
            Layer::Sched => "schedule",
            Layer::Timer => "timer",
            Layer::PktLight => "pkt_light",
        }
    }
}

/// One retained span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span among the retained spans.
    pub parent: Option<u32>,
    pub pkt: u64,
}

/// What the decider measured on one sampled packet: the reads around the
/// shadow lookup (`t0..t1`) and around the pipeline's `decide`
/// (`t1..t2`), one more read straight after (`t2..t3` is the timer's own
/// cost), and how the shadow lookup ended.
#[derive(Debug, Clone, Copy)]
pub struct DecideSample {
    pub pkt: u64,
    pub t0: Instant,
    pub t1: Instant,
    pub t2: Instant,
    pub t3: Instant,
    pub result: CacheResult,
}

/// In-memory span store plus the per-layer folds.
///
/// Folding (arithmetic, pushes) always happens after the last read of the
/// packet it belongs to, so none of it lands inside a span.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    retained_pkts: usize,
    sum_ns: [u64; LAYERS],
    count: [u64; LAYERS],
    /// Set while the benchmark's own loop drives the NIC: the decider then
    /// parks its sample here and the loop folds it with its own spans.
    pub own_loop: bool,
    pending: Option<DecideSample>,
    /// Shadow lookups that hit / missed, timed ones only.
    pub hit_ns: u64,
    pub hit_n: u64,
    pub miss_ns: u64,
    pub miss_n: u64,
}

/// A tracer shared between the benchmark's loop and the decider it
/// installed inside the NIC (single-threaded: the NIC model is `!Send`).
pub type SharedTracer = Rc<RefCell<Tracer>>;

impl Tracer {
    /// An empty tracer whose span times count from `origin`.
    pub fn with_origin(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            retained_pkts: 0,
            sum_ns: [0; LAYERS],
            count: [0; LAYERS],
            own_loop: false,
            pending: None,
            hit_ns: 0,
            hit_n: 0,
            miss_ns: 0,
            miss_n: 0,
        }
    }

    pub fn shared() -> SharedTracer {
        Rc::new(RefCell::new(Tracer::with_origin(Instant::now())))
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Folds one span and, under the retention cap, keeps it. Returns the
    /// retained index. Call [`Tracer::end_packet`] after a packet's last.
    pub fn span(
        &mut self,
        layer: Layer,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
        pkt: u64,
    ) -> Option<u32> {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.sum_ns[layer as usize] += end_ns - start_ns;
        self.count[layer as usize] += 1;
        if self.retained_pkts >= RETAIN_PACKETS {
            return None;
        }
        self.spans.push(Span {
            layer,
            start_ns,
            end_ns,
            parent,
            pkt,
        });
        Some(self.spans.len() as u32 - 1)
    }

    /// Counts one finished sampled packet against the retention cap.
    pub fn end_packet(&mut self) {
        if self.retained_pkts < RETAIN_PACKETS {
            self.retained_pkts += 1;
        }
    }

    /// Folds the decider's spans of one packet under `parent`.
    fn fold_decide(&mut self, d: DecideSample, parent: Option<u32>) {
        self.span(Layer::Shadow, d.t0, d.t1, parent, d.pkt);
        self.span(Layer::Decide, d.t1, d.t2, parent, d.pkt);
        self.span(Layer::Timer, d.t2, d.t3, parent, d.pkt);
        let lookup_ns = (d.t1 - d.t0).as_nanos() as u64;
        match d.result {
            CacheResult::Hit => {
                self.hit_ns += lookup_ns;
                self.hit_n += 1;
            }
            CacheResult::Miss => {
                self.miss_ns += lookup_ns;
                self.miss_n += 1;
            }
        }
    }

    /// Folds one sampled packet of the benchmark's own loop — `Pkt(r0..r3)`
    /// with children `Gen(ra..r1)`, `Rx(r1..r2)` and `Timer(r2..rc)` —
    /// and, under `Rx`, whatever the decider parked while `rx` ran.
    pub fn fold_packet(&mut self, pkt: u64, [r0, ra, r1, r2, rc, r3]: [Instant; 6]) {
        let root = self.span(Layer::Pkt, r0, r3, None, pkt);
        self.span(Layer::Gen, ra, r1, root, pkt);
        let rx = self.span(Layer::Rx, r1, r2, root, pkt);
        self.span(Layer::Timer, r2, rc, root, pkt);
        if let Some(d) = self.pending.take() {
            self.fold_decide(d, rx);
        }
        self.end_packet();
    }

    /// Folds the root span of one lightly instrumented packet.
    pub fn fold_light(&mut self, pkt: u64, start: Instant, end: Instant) {
        self.span(Layer::PktLight, start, end, None, pkt);
        self.end_packet();
    }

    pub fn sum_ns(&self, layer: Layer) -> f64 {
        self.sum_ns[layer as usize] as f64
    }

    pub fn count(&self, layer: Layer) -> u64 {
        self.count[layer as usize]
    }

    /// Mean cost of one timer read, measured in place by the `Timer` spans
    /// (0 before any was taken).
    pub fn timer_cost_ns(&self) -> f64 {
        self.sum_ns(Layer::Timer) / self.count(Layer::Timer).max(1) as f64
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Folds the per-layer sums of `other` (another thread's tracer with
    /// the same origin) into this one; retained spans are appended under
    /// the cap.
    pub fn merge(&mut self, other: &Tracer) {
        for i in 0..LAYERS {
            self.sum_ns[i] += other.sum_ns[i];
            self.count[i] += other.count[i];
        }
        self.hit_ns += other.hit_ns;
        self.hit_n += other.hit_n;
        self.miss_ns += other.miss_ns;
        self.miss_n += other.miss_n;
        if self.retained_pkts < RETAIN_PACKETS {
            let offset = self.spans.len() as u32;
            self.spans.extend(other.spans.iter().map(|s| Span {
                parent: s.parent.map(|p| p + offset),
                ..*s
            }));
            self.retained_pkts += other.retained_pkts;
        }
    }

    /// The trace document written at exit.
    pub fn to_json(&self, workload: &str, seed: u64) -> JsonValue {
        let layers = [
            Layer::Pkt,
            Layer::Gen,
            Layer::Rx,
            Layer::Shadow,
            Layer::Decide,
            Layer::Clock,
            Layer::Classify,
            Layer::Sched,
            Layer::Timer,
            Layer::PktLight,
        ];
        JsonValue::obj([
            ("workload", JsonValue::Str(workload.to_owned())),
            ("seed", JsonValue::UInt(seed)),
            ("clock", JsonValue::Str("host".to_owned())),
            ("sample_burst", JsonValue::UInt(SAMPLE_BURST)),
            ("sample_period", JsonValue::UInt(SAMPLE_PERIOD)),
            ("timer_cost_ns", JsonValue::Num(self.timer_cost_ns())),
            (
                "layers",
                JsonValue::obj(layers.iter().filter(|&&l| self.count(l) > 0).map(|&l| {
                    (
                        l.name(),
                        JsonValue::obj([
                            ("spans", JsonValue::UInt(self.count(l))),
                            ("sum_ns", JsonValue::UInt(self.sum_ns[l as usize])),
                        ]),
                    )
                })),
            ),
            (
                "retained_packets",
                JsonValue::UInt(self.retained_pkts as u64),
            ),
            (
                "spans",
                JsonValue::arr(self.spans.iter().map(|s| {
                    JsonValue::obj([
                        ("name", JsonValue::Str(s.layer.name().to_owned())),
                        ("start_ns", JsonValue::UInt(s.start_ns)),
                        ("end_ns", JsonValue::UInt(s.end_ns)),
                        (
                            "parent",
                            s.parent
                                .map_or(JsonValue::Null, |p| JsonValue::UInt(u64::from(p))),
                        ),
                        ("pkt", JsonValue::UInt(s.pkt)),
                    ])
                })),
            ),
        ])
    }
}

/// Per-packet self times in nanoseconds, folded from a tracer's sums.
///
/// A span closed by two timer reads measures its body plus one read
/// (`c`); reads taken inside a span are part of its body. `c` is measured
/// in place, by the `Timer` spans of the same pass: on a workload whose
/// packet costs 110 ns the fold subtracts five reads per packet, and a
/// start-up calibration that is off by 10 ns moves the layer sum by half.
/// With that, for the loop `r0 merge ra gen r1 rx r2 rc post r3` and,
/// inside `rx`, the decider's `t0 shadow t1 decide t2 t3`:
///
/// * `gen = Gen − c`, `decide = Decide − c`, `classify ≈ Shadow − c`;
/// * `rx_self = Rx − c − Shadow − Decide − Timer − c·[decide ran]` (four
///   reads inside, three of them already inside the child measurements);
/// * `loop_self = Pkt − Gen − Rx − Timer − 2c` (five reads inside, three
///   counted by the children).
///
/// Each total is divided by the number of sampled packets, so a layer
/// that only a share of packets reach (the decider, on `sat_64B`) weighs
/// by that share. Where lightly instrumented packets were taken too
/// ([`Sample::Light`]), every time is then scaled by one factor so that
/// the layers plus the shadow lookup sum to what those packets cost
/// (`PktLight − c`): the proportions are the full packets', the total is
/// the light packets'.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerBudget {
    pub gen: f64,
    pub loop_self: f64,
    pub rx_self: f64,
    pub classify: f64,
    pub decide_self: f64,
    /// `Clock::now` per decision (`wallclock_2t` only).
    pub clock: f64,
    /// Shadow-lookup cost split by its `CacheResult` (per lookup).
    pub hit_ns_per_lookup: f64,
    pub miss_ns_per_lookup: f64,
    /// Share of sampled packets that reached the decider.
    pub decided_share: f64,
    /// Cost of one timer read, as the pass's `Timer` spans measured it.
    pub timer: f64,
    /// Factor the full packets' times were scaled by to sum to the light
    /// packets' cost (1 where no light packets were taken).
    pub probe_scale: f64,
}

impl LayerBudget {
    /// `sampled_pkts` is the number of sampled packets the sums cover;
    /// where the benchmark's loop ran it equals the `Pkt` span count.
    pub fn fold(t: &Tracer, sampled_pkts: u64) -> LayerBudget {
        let n = sampled_pkts.max(1) as f64;
        let c = t.timer_cost_ns();
        let cn = |l: Layer| c * t.count(l) as f64;
        let gen = t.sum_ns(Layer::Gen) - cn(Layer::Gen);
        let decide = t.sum_ns(Layer::Decide) - cn(Layer::Decide);
        let classify = t.sum_ns(Layer::Shadow) - cn(Layer::Shadow);
        // Where the loop is the benchmark's, the decider's `Timer` span sits
        // inside `Rx` and the loop's own inside `Pkt`.
        let decider_timer = c * t.count(Layer::Decide) as f64;
        let rx_self = t.sum_ns(Layer::Rx)
            - cn(Layer::Rx)
            - t.sum_ns(Layer::Shadow)
            - t.sum_ns(Layer::Decide)
            - decider_timer
            - cn(Layer::Decide);
        let loop_self = t.sum_ns(Layer::Pkt)
            - t.sum_ns(Layer::Gen)
            - t.sum_ns(Layer::Rx)
            - 3.0 * cn(Layer::Pkt);
        LayerBudget {
            gen: (gen / n).max(0.0),
            loop_self: (loop_self / n).max(0.0),
            rx_self: (rx_self / n).max(0.0),
            classify: (classify / n).max(0.0),
            decide_self: ((decide - classify) / n).max(0.0),
            clock: 0.0,
            hit_ns_per_lookup: per_lookup(t.hit_ns, t.hit_n, c),
            miss_ns_per_lookup: per_lookup(t.miss_ns, t.miss_n, c),
            decided_share: t.count(Layer::Decide) as f64 / n,
            timer: c,
            probe_scale: 1.0,
        }
        .scaled_to_light(t)
    }

    /// Scales every time so the layers sum to the light packets' cost.
    fn scaled_to_light(mut self, t: &Tracer) -> LayerBudget {
        let lights = t.count(Layer::PktLight);
        let raw = self.total();
        if lights == 0 || raw <= 0.0 {
            return self;
        }
        let light = (t.sum_ns(Layer::PktLight) / lights as f64 - self.timer).max(0.0);
        // A light packet still pays for the shadow lookup (it runs on every
        // packet so that its cache evolves like the real one): its cost is
        // the layers plus one more `classify`, both under the same factor.
        let shadow = if t.count(Layer::Shadow) > 0 {
            self.classify
        } else {
            0.0
        };
        let k = light / (raw + shadow);
        for v in [
            &mut self.gen,
            &mut self.loop_self,
            &mut self.rx_self,
            &mut self.classify,
            &mut self.decide_self,
            &mut self.clock,
            &mut self.hit_ns_per_lookup,
            &mut self.miss_ns_per_lookup,
        ] {
            *v *= k;
        }
        self.probe_scale = k;
        self
    }

    /// The fold for worker threads that call classifier and tree
    /// directly: `r0 clock r1 classify r2 schedule r3 r4`, three adjacent
    /// spans that tile the packet, each its body plus one read, and the
    /// timer's own span after them. Here `classify` is the direct
    /// `classify_at` and `decide_self` the `schedule` call.
    pub fn fold_threads(t: &Tracer) -> LayerBudget {
        let c = t.timer_cost_ns();
        let per = |l: Layer| (t.sum_ns(l) / t.count(l).max(1) as f64 - c).max(0.0);
        LayerBudget {
            clock: per(Layer::Clock),
            classify: per(Layer::Classify),
            decide_self: per(Layer::Sched),
            hit_ns_per_lookup: per_lookup(t.hit_ns, t.hit_n, c),
            miss_ns_per_lookup: per_lookup(t.miss_ns, t.miss_n, c),
            decided_share: 1.0,
            timer: c,
            probe_scale: 1.0,
            ..LayerBudget::default()
        }
        .scaled_to_light(t)
    }

    /// Sum of the layer self times: what the traced run says one packet
    /// costs with the tracing itself taken out.
    pub fn total(&self) -> f64 {
        self.gen + self.loop_self + self.rx_self + self.classify + self.decide_self + self.clock
    }

    /// Field by field, `pick` over the budgets of several passes. A
    /// lookup kind a pass never timed (no miss sampled) does not vote.
    pub fn across(passes: &[LayerBudget], pick: impl Fn(&[f64]) -> f64) -> LayerBudget {
        let col = |f: fn(&LayerBudget) -> f64| pick(&passes.iter().map(f).collect::<Vec<_>>());
        let seen = |f: fn(&LayerBudget) -> f64| {
            let timed: Vec<f64> = passes.iter().map(f).filter(|&v| v > 0.0).collect();
            if timed.is_empty() {
                0.0
            } else {
                pick(&timed)
            }
        };
        LayerBudget {
            gen: col(|b| b.gen),
            loop_self: col(|b| b.loop_self),
            rx_self: col(|b| b.rx_self),
            classify: col(|b| b.classify),
            decide_self: col(|b| b.decide_self),
            clock: col(|b| b.clock),
            hit_ns_per_lookup: seen(|b| b.hit_ns_per_lookup),
            miss_ns_per_lookup: seen(|b| b.miss_ns_per_lookup),
            decided_share: col(|b| b.decided_share),
            timer: col(|b| b.timer),
            probe_scale: col(|b| b.probe_scale),
        }
    }
}

fn per_lookup(sum_ns: u64, lookups: u64, c: f64) -> f64 {
    if lookups == 0 {
        0.0
    } else {
        (sum_ns as f64 / lookups as f64 - c).max(0.0)
    }
}

/// The classifier a pipeline compiled from `policy` starts with: same
/// rules, same default verdict, same flow-cache capacity.
pub fn shadow_classifier(policy: &Policy, params: TreeParams) -> Classifier<Option<QosLabel>> {
    let (_, rules, default) = policy
        .compile(params)
        .expect("policy compiled for the pipeline");
    let mut c = Classifier::new(default, FlowValvePipeline::DEFAULT_CACHE_CAPACITY);
    for r in rules {
        c.add_rule(r);
    }
    c
}

/// Benchmark-owned decider wrapped around the pipeline for the traced
/// pass. It forwards every call unchanged; on sampled packets it times
/// the inner `decide`, and it runs a shadow classifier on the identical
/// `(stripe, flow, vf)` sequence so the lookup the pipeline performs
/// inside `decide` has an outside estimate, split by hit and miss. The
/// shadow runs on every packet (its cache must evolve like the real one)
/// but is timed on sampled packets only.
pub struct TimedDecider {
    inner: FlowValvePipeline,
    shadow: Classifier<Option<QosLabel>>,
    tracer: SharedTracer,
}

impl TimedDecider {
    pub fn new(
        inner: FlowValvePipeline,
        shadow: Classifier<Option<QosLabel>>,
        tracer: SharedTracer,
    ) -> Self {
        TimedDecider {
            inner,
            shadow,
            tracer,
        }
    }
}

impl EgressDecider for TimedDecider {
    fn decide(
        &mut self,
        pkt: &Packet,
        now: Nanos,
        meter: &mut CostMeter,
        locks: &mut LockTable,
    ) -> Decision {
        let stripe = meter.worker();
        if !sampled(pkt.id) {
            let _ = self.shadow.classify_at(stripe, &pkt.flow, pkt.vf);
            return self.inner.decide(pkt, now, meter, locks);
        }
        let t0 = Instant::now();
        let result = self.shadow.classify_at(stripe, &pkt.flow, pkt.vf).1;
        let t1 = Instant::now();
        let decision = self.inner.decide(pkt, now, meter, locks);
        let t2 = Instant::now();
        let t3 = Instant::now();

        let sample = DecideSample {
            pkt: pkt.id,
            t0,
            t1,
            t2,
            t3,
            result,
        };
        let mut t = self.tracer.borrow_mut();
        if t.own_loop {
            // Still inside the loop's `nic.rx` span: park the reads, fold
            // later.
            t.pending = Some(sample);
        } else {
            t.fold_decide(sample, None);
            t.end_packet();
        }
        decision
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    /// Downcasts resolve to the wrapped pipeline, so `decider_as::<
    /// FlowValvePipeline>()` (telemetry attachment, statistics) works
    /// through the wrapper exactly as without it.
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self.inner.as_any_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn sampling_alternates_full_and_light_bursts_of_64() {
        assert!(sampled(0) && sampled(63) && !sampled(64));
        assert_eq!(sample_kind(SAMPLE_PERIOD), Some(Sample::Light));
        assert_eq!(sample_kind(SAMPLE_PERIOD + 64), None);
        assert!(sampled(2 * SAMPLE_PERIOD));
        let n = 10 * SAMPLE_PERIOD + 17;
        let full: Vec<u64> = (0..n).filter(|&i| sampled(i)).collect();
        assert_eq!(full.len() as u64, sampled_below(n));
        assert_eq!(sampled_below(n), 5 * SAMPLE_BURST + 17);
        let any = (0..n).filter(|&i| sample_kind(i).is_some()).count() as u64;
        assert_eq!(any, 10 * SAMPLE_BURST + 17);
        // A burst covers every residue of the program's 1-in-64 strides.
        let residues: std::collections::HashSet<u64> = full.iter().map(|i| i % 64).collect();
        assert_eq!(residues.len(), 64);
    }

    #[test]
    fn fold_subtracts_children_and_timer_reads() {
        let tracer = Tracer::shared();
        let mut t = tracer.borrow_mut();
        let o = t.origin;
        let at = |ns: u64| o + Duration::from_nanos(ns);
        // One packet, timer read cost c = 10 ns.
        //   Pkt 0..1000, Gen 50..160, Rx 160..800, Timer 800..810,
        //   inside rx: Shadow 200..260, Decide 260..600, Timer 600..610.
        t.own_loop = true;
        t.pending = Some(DecideSample {
            pkt: 0,
            t0: at(200),
            t1: at(260),
            t2: at(600),
            t3: at(610),
            result: CacheResult::Miss,
        });
        t.fold_packet(0, [at(0), at(50), at(160), at(800), at(810), at(1000)]);
        assert_eq!(t.timer_cost_ns(), 10.0);
        let b = LayerBudget::fold(&t, 1);
        assert_eq!(b.gen, 100.0);
        assert_eq!(b.classify, 50.0);
        assert_eq!(b.decide_self, 330.0 - 50.0);
        assert_eq!(b.rx_self, 640.0 - 10.0 - 60.0 - 340.0 - 10.0 - 10.0);
        assert_eq!(b.loop_self, 1000.0 - 110.0 - 640.0 - 10.0 - 20.0);
        assert_eq!(b.miss_ns_per_lookup, 50.0);
        assert_eq!(b.probe_scale, 1.0);
        assert_eq!(
            b.total(),
            b.gen + b.loop_self + b.rx_self + b.classify + b.decide_self
        );
        // The decider's spans hang under the packet's `nic.rx` span.
        let names: Vec<_> = t.spans().iter().map(|s| (s.layer, s.parent)).collect();
        assert_eq!(
            names,
            [
                (Layer::Pkt, None),
                (Layer::Gen, Some(0)),
                (Layer::Rx, Some(0)),
                (Layer::Timer, Some(0)),
                (Layer::Shadow, Some(2)),
                (Layer::Decide, Some(2)),
                (Layer::Timer, Some(2)),
            ]
        );
    }

    #[test]
    fn light_packets_set_the_total_full_packets_the_proportions() {
        let tracer = Tracer::shared();
        let mut t = tracer.borrow_mut();
        let o = t.origin;
        let at = |ns: u64| o + Duration::from_nanos(ns);
        // Full packet: raw layers gen 100 + loop 360 + rx 490 = 950.
        t.fold_packet(0, [at(0), at(50), at(160), at(660), at(670), at(1000)]);
        let raw = LayerBudget::fold(&t, 1);
        assert_eq!((raw.gen, raw.rx_self, raw.loop_self), (100.0, 490.0, 360.0));
        // Light packet: 485 measured = 475 of packet + one read.
        t.fold_light(448, at(2000), at(2485));
        let b = LayerBudget::fold(&t, 1);
        assert_eq!(b.probe_scale, 0.5);
        assert_eq!((b.gen, b.rx_self, b.loop_self), (50.0, 245.0, 180.0));
        assert_eq!(b.total(), 475.0);
    }

    #[test]
    fn retention_is_capped_but_sums_are_not() {
        let tracer = Tracer::shared();
        let mut t = tracer.borrow_mut();
        let now = Instant::now();
        for id in 0..(RETAIN_PACKETS as u64 + 10) {
            t.fold_packet(id, [now; 6]);
        }
        assert_eq!(t.retained_pkts, RETAIN_PACKETS);
        assert_eq!(t.spans().len(), 4 * RETAIN_PACKETS);
        assert_eq!(t.count(Layer::Pkt), RETAIN_PACKETS as u64 + 10);
    }
}
