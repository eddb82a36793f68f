//! Criterion: per-packet costs of the baseline software schedulers —
//! HTB enqueue/dequeue, DPDK QoS enqueue/dequeue, PRIO and TBF — next to
//! FlowValve's full decision. These are the software-side costs that
//! Figure 13 converts into CPU cores.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use flowvalve::label::ClassId;
use flowvalve::program::CompiledProgram;
use flowvalve::sched::{NoObserver, RealExec};
use flowvalve::tree::{ClassSpec, SchedulingTree, TreeParams};
use netstack::flow::FlowKey;
use netstack::packet::{AppId, Packet, VfPort};
use qdisc::dpdk::{DpdkQos, DpdkQosConfig};
use qdisc::htb::{Handle, Htb, HtbClassSpec, KernelModel};
use qdisc::prio::Prio;
use qdisc::tbf::Tbf;
use sim_core::time::Nanos;
use sim_core::units::BitRate;

fn pkt(id: u64) -> Packet {
    let flow = FlowKey::tcp([10, 0, 0, 1], 40_000, [10, 0, 255, 1], 5_001);
    Packet::new(id, flow, 1_518, AppId(0), VfPort(0), Nanos::ZERO)
}

fn bench_baselines(c: &mut Criterion) {
    let mut g = c.benchmark_group("baseline_qdiscs");
    g.throughput(Throughput::Elements(1));

    g.bench_function("htb_enqueue_dequeue", |b| {
        let mut htb = Htb::new(
            vec![
                HtbClassSpec::new(Handle(1), None, BitRate::from_gbps(100.0)),
                HtbClassSpec::new(Handle(10), Some(Handle(1)), BitRate::from_gbps(100.0)),
            ],
            KernelModel::ideal(),
        )
        .expect("hierarchy builds");
        let mut now = Nanos::ZERO;
        let mut id = 0;
        b.iter(|| {
            now += Nanos::from_nanos(200);
            id += 1;
            let _ = htb.enqueue(Handle(10), pkt(id)).expect("leaf exists");
            std::hint::black_box(htb.dequeue(now))
        });
    });

    g.bench_function("dpdk_enqueue_dequeue", |b| {
        let mut q = DpdkQos::new(DpdkQosConfig::equal_pipes(BitRate::from_gbps(100.0), 4));
        let mut now = Nanos::ZERO;
        b.iter(|| {
            now += Nanos::from_nanos(200);
            let _ = q.enqueue(0, 0, pkt(0));
            std::hint::black_box(q.dequeue(now))
        });
    });

    g.bench_function("prio_enqueue_dequeue", |b| {
        let mut q = Prio::new(3, 1 << 20, 1_024);
        b.iter(|| {
            let _ = q.enqueue(1, pkt(0));
            std::hint::black_box(q.dequeue())
        });
    });

    g.bench_function("tbf_enqueue_dequeue", |b| {
        let mut q = Tbf::new(BitRate::from_gbps(100.0), 1 << 20, 1 << 20, 1_024);
        let mut now = Nanos::ZERO;
        b.iter(|| {
            now += Nanos::from_nanos(200);
            let _ = q.enqueue(pkt(0));
            std::hint::black_box(q.dequeue(now))
        });
    });

    g.bench_function("flowvalve_decision", |b| {
        // The production path: the compiled admission chain, its id
        // resolved once up front as the pipeline's flow-cache entry has it.
        let tree = SchedulingTree::build(
            vec![
                ClassSpec::new(ClassId(1), "root", None).rate(BitRate::from_gbps(100.0)),
                ClassSpec::new(ClassId(10), "a", Some(ClassId(1))),
                ClassSpec::new(ClassId(20), "b", Some(ClassId(1))),
            ],
            TreeParams::default(),
        )
        .expect("tree builds");
        let label = tree
            .label(ClassId(10), &[ClassId(20)])
            .expect("leaf exists");
        let prog = CompiledProgram::compile(&tree, [&label]).expect("label of this tree");
        let chain = prog.resolve(&label).expect("label compiled");
        // Virtual time stepped like the NIC model feeds the scheduler
        // (100 ns ≈ one MTU frame at 100 Gbps); a wall-clock read per
        // iteration would measure the OS clock, not the decision.
        let mut now = Nanos::ZERO;
        let mut exec = RealExec;
        b.iter(|| {
            now += Nanos::from_nanos(100);
            std::hint::black_box(tree.run(&prog, chain, 12_144, now, &mut exec, &mut NoObserver))
        });
    });

    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
        .sample_size(20);
    targets = bench_baselines
}
criterion_main!(benches);
