//! Heap allocations per packet in the steady state of two workloads. The
//! demo: `scripts/motivation.fv` on the 40 G NIC model, one 1518 B TCP
//! flow per filter at an equal slice of 1.5x line rate (what `fv demo`
//! drives), merged by `np_sim::harness::drive`. Flow churn: 64 B packets
//! whose flows are drawn from a working set eight times the flow cache, so
//! most lookups miss, scan the filter table and evict. A counting global
//! allocator wraps `std::alloc::System`; the count is per thread, so other
//! tests running alongside do not leak into it. The Fig. 13 and Fig. 11b
//! fixtures, which need `hostsim`, are in the root `tests/alloc_per_packet.rs`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use flowvalve::frontend::Policy;
use flowvalve::pipeline::FlowValvePipeline;
use flowvalve::tree::TreeParams;
use fv_audit::ProvenanceRing;
use fv_telemetry::Registry;
use netstack::flow::FlowKey;
use netstack::gen::LineRateProcess;
use netstack::packet::{AppId, Packet, PacketIdGen, VfPort};
use np_sim::config::NicConfig;
use np_sim::harness::{drive, Source};
use np_sim::nic::SmartNic;
use sim_core::rng::SimRng;
use sim_core::time::Nanos;

struct Counting;

thread_local! {
    // Const-initialised and without a destructor: reading it never
    // allocates, so the allocator may touch it.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// The demo's simulated horizon; the first fifth of it is warm-up.
const HORIZON: Nanos = Nanos::from_millis(10);
const WARM_UP: Nanos = Nanos::from_millis(2);

/// The flows `fv demo` offers: one per filter, matched as precisely as
/// the filter allows.
fn sources(policy: &Policy, cfg: &NicConfig) -> Vec<Source> {
    let offered = cfg.line_rate.scaled(3, 2 * policy.filters.len() as u64);
    (0u8..)
        .zip(&policy.filters)
        .map(|(i, f)| {
            let m = &f.matcher;
            Source {
                flow: FlowKey::tcp(
                    [10, 0, 0, 10 + i],
                    m.src_port.unwrap_or(41_000 + u16::from(i)),
                    [10, 0, 255, 1],
                    m.dst_port.unwrap_or(5_000 + u16::from(i)),
                ),
                app: AppId(u16::from(i)),
                vf: m.vf.unwrap_or(VfPort(i)),
                process: Box::new(LineRateProcess::new(offered, 1518, cfg.framing)),
            }
        })
        .collect()
}

/// What the steady state of one run allocated.
struct Steady {
    /// Heap allocations made after the warm-up.
    allocs: u64,
    /// Packets offered after the warm-up.
    packets: u64,
    /// Provenance records of packets offered after the warm-up.
    sampled: u64,
}

/// Drives the demo workload, unobserved or with the observers `fv demo`
/// attaches: the registry on the NIC, the pipeline's telemetry and an
/// auditor on a 4 096-slot provenance ring.
fn steady_state(observed: bool) -> Steady {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scripts/motivation.fv"
    ))
    .expect("the demo script is in the tree");
    let policy = Policy::parse(&text).expect("the demo script parses");
    let cfg = NicConfig::agilio_cx_40g();
    let mut pipeline =
        FlowValvePipeline::compile(&policy, TreeParams::default(), &cfg).expect("compiles");
    let registry = Registry::with_ring_capacity(1024);
    let ring = Arc::new(ProvenanceRing::new(4096));
    let mut nic = match observed {
        true => {
            pipeline.attach_telemetry(&registry);
            pipeline.attach_auditor(ring.clone(), registry.sampler());
            SmartNic::with_registry(cfg.clone(), Box::new(pipeline), &registry)
        }
        false => SmartNic::new(cfg.clone(), Box::new(pipeline)),
    };
    // (allocations so far, first packet id) at the end of the warm-up.
    let (mut warm, mut packets) = (None, 0u64);
    drive(sources(&policy, &cfg), HORIZON, 1, |pkt| {
        if pkt.created_at >= WARM_UP {
            warm.get_or_insert((allocs(), pkt.id));
            packets += 1;
        }
        let _ = nic.rx(pkt, pkt.created_at);
    });
    let (before, first) = warm.expect("the run outlasts its warm-up");
    let allocs = allocs() - before;
    assert!(packets > 30_000, "only {packets} packets past the warm-up");
    let sampled = ring.records().iter().filter(|r| r.pkt_id >= first).count() as u64;
    Steady {
        allocs,
        packets,
        sampled,
    }
}

#[test]
fn an_unobserved_packet_allocates_nothing() {
    let run = steady_state(false);
    assert_eq!(run.allocs, 0, "over {} packets", run.packets);
}

/// The observed run's steady state, measured: 1 068 allocations over
/// 39 012 packets, 610 of them sampled. Every one is the `Recorder` step
/// vector of a sampled decision, one allocation for its first four steps
/// and one regrowth for a walk of five to eight. A ceiling.
const RECORDER_STEP_ALLOCS: u64 = 1_068;

#[test]
fn an_observed_packet_allocates_only_for_its_sampled_steps() {
    let run = steady_state(true);
    assert!(run.sampled > 0, "no packet past the warm-up was sampled");
    assert!(
        run.allocs <= RECORDER_STEP_ALLOCS && run.allocs <= 2 * run.sampled,
        "{} allocations over {} packets, {} sampled",
        run.allocs,
        run.packets,
        run.sampled
    );
}

/// The churn fixture's flow cache, and the working set drawn against it.
const CACHE: usize = 512;
const FLOWS: u64 = 8 * CACHE as u64;

#[test]
fn a_packet_that_misses_the_flow_cache_allocates_nothing() {
    // Four weighted leaves, one `dport` filter each, behind a `/24` filter
    // every lookup scans first.
    let policy = Policy::parse(
        "fv qdisc add dev nic0 root handle 1: fv\n\
         fv class add dev nic0 parent root classid 1:1 rate 40gbit\n\
         fv class add dev nic0 parent 1:1 classid 1:10 weight 1\n\
         fv class add dev nic0 parent 1:1 classid 1:11 weight 2\n\
         fv class add dev nic0 parent 1:1 classid 1:12 weight 3\n\
         fv class add dev nic0 parent 1:1 classid 1:13 weight 4\n\
         fv filter add dev nic0 prio 1 match ip src 10.9.0.0/24 flowid 1:10\n\
         fv filter add dev nic0 prio 2 match ip dport 6000 flowid 1:10\n\
         fv filter add dev nic0 prio 3 match ip dport 6001 flowid 1:11\n\
         fv filter add dev nic0 prio 4 match ip dport 6002 flowid 1:12\n\
         fv filter add dev nic0 prio 5 match ip dport 6003 flowid 1:13\n",
    )
    .expect("parses");
    let cfg = NicConfig::agilio_cx_40g();
    let (tree, rules, default) = policy.compile(TreeParams::default()).expect("compiles");
    let mut classifier = classifier::Classifier::new(default, CACHE);
    for rule in rules {
        classifier.add_rule(rule);
    }
    let pipeline =
        FlowValvePipeline::from_classifier(Arc::new(tree), classifier, &cfg).expect("builds");
    let mut nic = SmartNic::new(cfg, Box::new(pipeline));
    // 64 B at 8 Mpps: 1 ms of warm-up, then 2 ms measured.
    let (gap, warm_up, end) = (
        Nanos::from_nanos(125),
        Nanos::from_millis(1),
        Nanos::from_millis(3),
    );
    let (mut rng, mut ids) = (SimRng::seed(29), PacketIdGen::new());
    let (mut t, mut before, mut packets) = (Nanos::ZERO, None, 0u64);
    while t < end {
        if t >= warm_up {
            before.get_or_insert(allocs());
            packets += 1;
        }
        let i = rng.range(0, FLOWS);
        let flow = FlowKey::udp(
            [10, 8, (i >> 8) as u8, i as u8],
            40_000,
            [10, 0, 255, 1],
            6000 + (i % 4) as u16,
        );
        let pkt = Packet::new(ids.next_id(), flow, 64, AppId(0), VfPort(0), t);
        let _ = nic.rx(&pkt, t);
        t += gap;
    }
    let allocs = allocs() - before.expect("the run outlasts its warm-up");
    let stats = nic
        .decider_as::<FlowValvePipeline>()
        .expect("flowvalve decider")
        .cache_stats();
    assert!(
        stats.misses > stats.hits,
        "the cache does not thrash: {stats:?}"
    );
    assert_eq!(allocs, 0, "over {packets} packets");
}
