//! What an observed packet leaves behind, checked on one seeded stream
//! through `SmartNic::with_registry` + `attach_telemetry` +
//! `attach_auditor`: every counter is exact, and the records keyed by a
//! packet id — stage spans, verdict and drop events, provenance — follow
//! one decision, all of them for a sampled id and none for any other.
//!
//! The stream reaches every outcome the observers tell apart: two VFs, a
//! policy whose root admits more than the 40 G wire carries (so the TM
//! FIFO tail-drops), a small-weight class that borrows from a sibling
//! using little of its share and is dropped once the lender runs dry, and
//! a 64 B stretch past the compute bound (the receive ring overflows).

use std::sync::Arc;

use flowvalve::frontend::Policy;
use flowvalve::pipeline::FlowValvePipeline;
use flowvalve::tree::{ClassCounters, SchedulingTree, TreeParams};
use fv_audit::{AuditVerdict, ProvenanceRing};
use fv_telemetry::{Registry, Sampler, Snapshot, Stage, TraceEvent, TraceKind, STAGES};
use netstack::flow::FlowKey;
use netstack::packet::{AppId, Packet, VfPort};
use np_sim::config::NicConfig;
use np_sim::lock::{LockStats, PerLockStats};
use np_sim::nic::{NicStats, RxOutcome, SmartNic};
use sim_core::rng::SimRng;
use sim_core::time::Nanos;

const POLICY: &str = "\
fv qdisc add dev nic0 root handle 1: fv default 1:10
fv class add dev nic0 parent root classid 1:1 name link rate 100gbit
fv class add dev nic0 parent 1:1 classid 1:10 name bulk weight 40
fv class add dev nic0 parent 1:1 classid 1:20 name small weight 1
fv class add dev nic0 parent 1:1 classid 1:30 name light weight 4
fv filter add dev nic0 match vf 1 ip dport 5001 flowid 1:20 borrow 1:30
fv filter add dev nic0 match vf 1 ip dport 5002 flowid 1:30
";

const PACKETS: u64 = 40_000;

/// One packet of the stream: what was offered, when, and what became of it.
struct Offered {
    pkt: Packet,
    outcome: RxOutcome,
}

/// Everything the run left behind.
struct Observed {
    stream: Vec<Offered>,
    snapshot: Snapshot,
    /// The NIC's own view of its tallies.
    nic: NicStats,
    /// The scheduling tree the pipeline ran, with its own verdict tallies.
    tree: Arc<SchedulingTree>,
    locks: LockStats,
    per_lock: Vec<PerLockStats>,
    /// The registry's per-packet decision.
    sampler: Sampler,
    /// Every trace event of the run (the ring never wrapped).
    events: Vec<TraceEvent>,
    /// Every provenance record of the run (nor did this one).
    provenance: Arc<ProvenanceRing>,
}

fn pipeline(cfg: &NicConfig) -> FlowValvePipeline {
    let policy = Policy::parse(POLICY).expect("policy parses");
    FlowValvePipeline::compile(&policy, TreeParams::default(), cfg).expect("policy compiles")
}

/// Offers the seeded stream to `nic`; returns it with the last arrival.
///
/// MTU frames at ~2x line rate (the TM FIFO fills and tail-drops), then
/// 64 B frames at ~5x the compute bound (the receive ring overflows),
/// then MTU frames under line rate. A quarter of each is VF 1's small
/// class, one packet in twenty its lender.
fn offer(nic: &mut SmartNic) -> (Vec<Offered>, Nanos) {
    let mut rng = SimRng::seed(0x5a3b_1e64);
    let mut t = Nanos::ZERO;
    let stream = (0..PACKETS)
        .map(|id| {
            let (len, gap) = match id {
                0..=19_999 => (1518, rng.range(60, 240)),
                20_000..=31_999 => (64, rng.range(2, 18)),
                _ => (1518, rng.range(200, 800)),
            };
            t += Nanos::from_nanos(gap);
            let (vf, dport) = match rng.range(0, 20) {
                0 => (1, 5002),
                1..=5 => (1, 5001),
                _ => (0, 5000),
            };
            let flow = FlowKey::tcp([10, 0, 0, 1], 4000, [10, 0, 0, 2], dport);
            let pkt = Packet::new(id, flow, len, AppId(vf as u16), VfPort(vf), t);
            let outcome = nic.rx(&pkt, t);
            Offered { pkt, outcome }
        })
        .collect();
    (stream, t)
}

fn run() -> Observed {
    let cfg = NicConfig::agilio_cx_40g();
    let mut pipeline = pipeline(&cfg);
    // Deep enough to retain every event of the run, so "an unsampled id
    // has none" is checked against everything that was ever recorded.
    let registry = Registry::with_ring_capacity(1 << 19);
    pipeline.attach_telemetry(&registry);
    let sampler = registry.sampler();
    let provenance = Arc::new(ProvenanceRing::new(4096));
    pipeline.attach_auditor(provenance.clone(), sampler);
    let tree = pipeline.tree().clone();
    let mut nic = SmartNic::with_registry(cfg, Box::new(pipeline), &registry);
    let (stream, t) = offer(&mut nic);
    nic.sync_gauges(t);
    let ring = registry.ring();
    assert!(
        ring.recorded() <= ring.capacity() as u64,
        "event ring wrapped"
    );
    Observed {
        stream,
        snapshot: registry.snapshot(t),
        nic: nic.stats(),
        tree,
        locks: nic.lock_stats(),
        per_lock: nic.per_lock_stats().to_vec(),
        sampler,
        events: ring.recent(ring.capacity()),
        provenance,
    }
}

fn count(stream: &[Offered], keep: impl Fn(&RxOutcome) -> bool) -> u64 {
    stream.iter().filter(|o| keep(&o.outcome)).count() as u64
}

#[test]
fn counters_are_exact_on_an_observed_nic() {
    let Observed {
        stream,
        snapshot,
        nic,
        tree,
        locks,
        per_lock,
        ..
    } = run();
    let rx_drops = count(&stream, |o| matches!(o, RxOutcome::RxDrop));
    let sched_drops = count(&stream, |o| matches!(o, RxOutcome::SchedDrop { .. }));
    let tail_drops = count(&stream, |o| matches!(o, RxOutcome::TailDrop { .. }));
    let transmitted = count(&stream, |o| matches!(o, RxOutcome::Transmit { .. }));
    assert!(
        rx_drops > 0 && sched_drops > 0 && tail_drops > 0 && transmitted > 0,
        "the stream must reach every outcome: rx {rx_drops} sched {sched_drops} \
         tail {tail_drops} tx {transmitted}"
    );
    for (name, tally) in [
        ("nic.offered", PACKETS),
        ("nic.rx_drops", rx_drops),
        ("nic.sched_drops", sched_drops),
        ("nic.tail_drops", tail_drops),
        ("nic.tx_packets", transmitted),
    ] {
        assert_eq!(snapshot.counter(name), tally, "{name}");
    }
    // `stats()` reads what the registry holds.
    for (name, tally) in [
        ("nic.tx_packets", nic.tx_packets),
        ("nic.tx_bits", nic.tx_bits),
        ("nic.tail_drops", nic.tail_drops),
    ] {
        assert_eq!(snapshot.counter(name), tally, "{name}");
    }
    assert!(nic.tx_bits > 0);

    // Lock tallies: the registry, `lock_stats()` and the sums over the
    // per-lock rows are one count, and an unobserved NIC offered the same
    // stream arrives at it too.
    assert!(locks.try_acquired > 0 && locks.try_failed > 0, "{locks:?}");
    let summed = LockStats {
        try_acquired: per_lock.iter().map(|r| r.acquires).sum(),
        try_failed: per_lock.iter().map(|r| r.try_failed).sum(),
        contended: per_lock.iter().map(|r| r.contended).sum(),
        wait_total: per_lock.iter().map(|r| r.wait_total).sum(),
    };
    let registered = LockStats {
        try_acquired: snapshot.counter("lock.try_acquired"),
        try_failed: snapshot.counter("lock.try_failed"),
        contended: snapshot.counter("lock.contended"),
        wait_total: Nanos::from_nanos(snapshot.counter("lock.wait_ns")),
    };
    assert_eq!(summed, locks);
    assert_eq!(registered, locks);
    let cfg = NicConfig::agilio_cx_40g();
    let mut bare = SmartNic::new(cfg.clone(), Box::new(pipeline(&cfg)));
    offer(&mut bare);
    assert_eq!(bare.lock_stats(), locks);
    assert_eq!(bare.per_lock_stats(), per_lock);
    assert_eq!(bare.stats(), nic);

    // Every packet that reached `decide` has exactly one class verdict.
    let verdicts = |suffix: &str| -> u64 {
        snapshot
            .entries
            .iter()
            .filter(|e| e.name.starts_with("fv.class.") && e.name.ends_with(suffix))
            .map(|e| snapshot.counter(&e.name))
            .sum()
    };
    let (forwarded, borrowed, dropped) = (
        verdicts(".forwarded"),
        verdicts(".borrowed"),
        verdicts(".dropped"),
    );
    assert!(borrowed > 0, "the small class must borrow");
    assert_eq!(forwarded + borrowed + dropped, PACKETS - rx_drops);
    assert_eq!(dropped, sched_drops);
    assert_eq!(verdicts(".lent"), borrowed);
    // One count per verdict: the tree's `NodeHot` tallies, which the
    // registry reads for every class.
    for id in tree.class_ids() {
        let cell = |field: &str| snapshot.counter(&format!("fv.class.{id}.{field}"));
        let registered = ClassCounters {
            forwarded: cell("forwarded"),
            borrowed: cell("borrowed"),
            dropped: cell("dropped"),
            lent: cell("lent"),
        };
        assert_eq!(tree.counters(id), Some(registered), "{id}");
    }

    // End-to-end latency is a per-packet histogram, not a sampled span.
    let latency = snapshot
        .histogram("nic.latency_ns")
        .expect("nic.latency_ns");
    assert_eq!(latency.count, transmitted);
}

/// Whether the packet got past the receive ring, to `decide`.
fn decided(o: &Offered) -> bool {
    !matches!(o.outcome, RxOutcome::RxDrop)
}

/// The leaf class `POLICY` files a packet under.
fn class_of(pkt: &Packet) -> u64 {
    match (pkt.vf.0, pkt.flow.dst_port) {
        (1, 5001) => 20,
        (1, 5002) => 30,
        _ => 10,
    }
}

#[test]
fn a_packet_has_all_of_its_records_or_none() {
    let Observed {
        stream,
        snapshot,
        sampler,
        events,
        provenance,
        ..
    } = run();
    let sampled: Vec<&Offered> = stream.iter().filter(|o| sampler.hit(o.pkt.id)).collect();
    assert_eq!(sampled.len() as u64, PACKETS >> sampler.shift());
    assert_eq!(snapshot.sample_period(), 1 << sampler.shift());

    // Events that name their packet: the ring holds exactly what the
    // sampled packets of the stream should have left, nothing of any other.
    let mut expected: Vec<(u64, TraceKind)> = Vec::new();
    for o in &sampled {
        let kinds: &[TraceKind] = match o.outcome {
            RxOutcome::RxDrop => &[TraceKind::RxDrop],
            RxOutcome::SchedDrop { .. } => &[
                TraceKind::SpanIngress,
                TraceKind::SpanClassify,
                TraceKind::SpanSched,
            ],
            RxOutcome::TailDrop { .. } => &[
                TraceKind::SpanIngress,
                TraceKind::SpanClassify,
                TraceKind::SpanSched,
                TraceKind::TailDrop,
            ],
            RxOutcome::Transmit { .. } => &[
                TraceKind::SpanIngress,
                TraceKind::SpanClassify,
                TraceKind::SpanSched,
                TraceKind::SpanTmQueue,
                TraceKind::SpanWire,
            ],
            RxOutcome::FaultDrop { .. } => unreachable!("no injector installed"),
        };
        expected.extend(kinds.iter().map(|&k| (o.pkt.id, k)));
    }
    let by_id_then_kind = |&(id, kind): &(u64, TraceKind)| (id, kind as u8);
    expected.sort_by_key(by_id_then_kind);
    let mut actual: Vec<(u64, TraceKind)> = events
        .iter()
        .filter_map(|e| match e.kind {
            TraceKind::RxDrop => Some((e.a, e.kind)),
            TraceKind::TailDrop => Some((e.b, e.kind)),
            k if k.is_span() => Some((e.a, e.kind)),
            _ => None,
        })
        .collect();
    actual.sort_by_key(by_id_then_kind);
    assert_eq!(actual, expected);
    for kind in [TraceKind::RxDrop, TraceKind::TailDrop, TraceKind::SpanWire] {
        assert!(
            expected.iter().any(|&(_, k)| k == kind),
            "no sampled packet left a {kind:?}"
        );
    }

    // Verdict events name a class, not a packet; they carry the instant
    // the packet's classify span starts at. One per sampled packet that
    // reached `decide`, none besides.
    let mut expected: Vec<(Nanos, u64, bool)> = sampled
        .iter()
        .filter(|o| decided(o))
        .map(|o| {
            let classify = events
                .iter()
                .find(|e| e.kind == TraceKind::SpanClassify && e.a == o.pkt.id)
                .expect("checked above");
            let dropped = matches!(o.outcome, RxOutcome::SchedDrop { .. });
            (classify.at, class_of(&o.pkt), dropped)
        })
        .collect();
    expected.sort();
    let mut actual: Vec<(Nanos, u64, bool)> = events
        .iter()
        .filter_map(|e| match e.kind {
            TraceKind::SchedForward | TraceKind::SchedBorrow => Some((e.at, e.a, false)),
            TraceKind::SchedDrop => Some((e.at, e.a, true)),
            _ => None,
        })
        .collect();
    actual.sort();
    assert_eq!(actual, expected);
    assert!(
        events.iter().any(|e| e.kind == TraceKind::SchedBorrow),
        "no sampled borrow"
    );

    // Provenance: the same packets again, with the verdict the NIC acted on.
    let records = provenance.records();
    let record_ids: Vec<u64> = records.iter().map(|r| r.pkt_id).collect();
    let decided_ids: Vec<u64> = sampled
        .iter()
        .filter(|o| decided(o))
        .map(|o| o.pkt.id)
        .collect();
    assert_eq!(record_ids, decided_ids);
    for (r, o) in records.iter().zip(sampled.iter().filter(|o| decided(o))) {
        assert_eq!(
            r.verdict == AuditVerdict::Drop,
            matches!(o.outcome, RxOutcome::SchedDrop { .. }),
            "pkt {}",
            r.pkt_id
        );
        assert_eq!(u64::from(r.leaf), class_of(&o.pkt), "pkt {}", r.pkt_id);
    }

    // Each span histogram counts the sampled packets that reached its stage.
    let reached = |stage: Stage| -> u64 {
        let n = sampled.iter().filter(|o| match stage {
            Stage::Ingress | Stage::Classify | Stage::Sched => decided(o),
            Stage::TmQueue | Stage::Wire => matches!(o.outcome, RxOutcome::Transmit { .. }),
        });
        n.count() as u64
    };
    for stage in STAGES {
        let name = stage.metric();
        let h = snapshot.histogram(name).expect(name);
        assert_eq!(h.count, reached(stage), "{name}");
    }

    // What is not about one packet is never sampled: every refill the tree
    // counted is in the ring.
    for (kind, counter) in [
        (TraceKind::TokenRefill, "fv.tree.updates"),
        (TraceKind::ShadowRefill, "fv.tree.shadow_updates"),
    ] {
        let traced = events.iter().filter(|e| e.kind == kind).count() as u64;
        assert!(traced > 0, "{counter}");
        assert_eq!(traced, snapshot.counter(counter), "{counter}");
    }
}
