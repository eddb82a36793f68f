//! Criterion: the two adapters over the one admission function — the
//! pair behind DESIGN.md §11's tables.
//!
//! `*_interpreted` is `schedule(&label)`: the same admission with every
//! class of the label resolved through the id → node table per packet;
//! `*_compiled` is `run(prog, chain)`, the node indices resolved once up
//! front, the way the pipeline's flow-cache entry carries them. The gap
//! between the two is the price of per-packet resolution and nothing else.
//! Both sides step virtual time (100 ns/packet) exactly as the NIC model
//! does, so refill epochs roll at the realistic cadence and no wall-clock
//! reads pollute the measurement.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use flowvalve::label::ClassId;
use flowvalve::program::CompiledProgram;
use flowvalve::sched::{NoObserver, RealExec};
use flowvalve::tree::{ClassSpec, SchedulingTree, TreeParams};
use sim_core::time::Nanos;
use sim_core::units::BitRate;

/// The 3-class tree every `flowvalve_decision`-style bench uses.
fn shallow_tree() -> SchedulingTree {
    SchedulingTree::build(
        vec![
            ClassSpec::new(ClassId(1), "root", None).rate(BitRate::from_gbps(100.0)),
            ClassSpec::new(ClassId(10), "a", Some(ClassId(1))),
            ClassSpec::new(ClassId(20), "b", Some(ClassId(1))),
        ],
        TreeParams::default(),
    )
    .expect("tree builds")
}

/// A 4-level path with a ceiling and three lenders: the most classes a
/// label here makes `schedule` resolve per packet.
fn deep_tree() -> SchedulingTree {
    SchedulingTree::build(
        vec![
            ClassSpec::new(ClassId(1), "root", None).rate(BitRate::from_gbps(100.0)),
            ClassSpec::new(ClassId(2), "agg", Some(ClassId(1))),
            ClassSpec::new(ClassId(3), "tenant", Some(ClassId(2))),
            ClassSpec::new(ClassId(10), "app", Some(ClassId(3))).ceil(BitRate::from_gbps(60.0)),
            ClassSpec::new(ClassId(20), "l1", Some(ClassId(3))),
            ClassSpec::new(ClassId(21), "l2", Some(ClassId(3))),
            ClassSpec::new(ClassId(22), "l3", Some(ClassId(3))),
        ],
        TreeParams::default(),
    )
    .expect("tree builds")
}

fn bench_sched_compiled(c: &mut Criterion) {
    let mut g = c.benchmark_group("sched_compiled");
    g.throughput(Throughput::Elements(1));

    g.bench_function("decision_interpreted", |b| {
        let tree = shallow_tree();
        let label = tree
            .label(ClassId(10), &[ClassId(20)])
            .expect("leaf exists");
        let mut now = Nanos::ZERO;
        let mut exec = RealExec;
        b.iter(|| {
            now += Nanos::from_nanos(100);
            std::hint::black_box(tree.schedule(&label, 12_144, now, &mut exec))
        });
    });

    g.bench_function("decision_compiled", |b| {
        let tree = shallow_tree();
        let label = tree
            .label(ClassId(10), &[ClassId(20)])
            .expect("leaf exists");
        let prog = CompiledProgram::compile(&tree, [&label]).expect("label of this tree");
        let chain = prog.resolve(&label).expect("label compiled");
        let mut now = Nanos::ZERO;
        let mut exec = RealExec;
        b.iter(|| {
            now += Nanos::from_nanos(100);
            std::hint::black_box(tree.run(&prog, chain, 12_144, now, &mut exec, &mut NoObserver))
        });
    });

    g.bench_function("deep_interpreted", |b| {
        let tree = deep_tree();
        let label = tree
            .label(ClassId(10), &[ClassId(20), ClassId(21), ClassId(22)])
            .expect("leaf exists");
        let mut now = Nanos::ZERO;
        let mut exec = RealExec;
        b.iter(|| {
            now += Nanos::from_nanos(100);
            std::hint::black_box(tree.schedule(&label, 12_144, now, &mut exec))
        });
    });

    g.bench_function("deep_compiled", |b| {
        let tree = deep_tree();
        let label = tree
            .label(ClassId(10), &[ClassId(20), ClassId(21), ClassId(22)])
            .expect("leaf exists");
        let prog = CompiledProgram::compile(&tree, [&label]).expect("label of this tree");
        let chain = prog.resolve(&label).expect("label compiled");
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
    targets = bench_sched_compiled
}
criterion_main!(benches);
