//! Multi-core scaling gate: aggregate wall-clock scheduling throughput
//! must grow with threads — on hardware that has the threads to give.
//!
//! Runs the same striped hot path as the `sched_function/scaling` bench
//! family (compiled admission chains, per-thread counter stripes, the
//! padded bucket slab) at 1, 4 and — with `FV_SCALING_FULL=1` — 8
//! threads, and asserts the aggregate rate scales:
//!
//! * quick gate: >= 2x aggregate speedup at 4 threads (needs >= 4 CPUs);
//! * full gate:  >= 3x aggregate speedup at 8 threads (needs >= 8 CPUs).
//!
//! The gate is machine-aware by design: thread scaling is a property of
//! the host, not the code, so on a box with fewer CPUs than a gate needs
//! the gate prints an explicit SKIP and exits 0 instead of measuring a
//! physically impossible speedup. Run it on a multi-core machine to
//! enforce the acceptance numbers; until someone has, multi-core scaling
//! is unverified on >= 4 cores.

use std::sync::Arc;
use std::time::Instant;

use flowvalve::label::ClassId;
use flowvalve::program::CompiledProgram;
use flowvalve::sched::{NoObserver, RealExec};
use flowvalve::tree::{ClassSpec, SchedulingTree, TreeParams};
use sim_core::clock::{Clock, WallClock};
use sim_core::units::BitRate;

const WIRE_BITS: u64 = 12_000;
const LEAVES: usize = 8;

fn tree() -> Arc<SchedulingTree> {
    let mut specs = vec![ClassSpec::new(ClassId(1), "root", None).rate(BitRate::from_gbps(40.0))];
    for i in 0..LEAVES {
        specs.push(ClassSpec::new(
            ClassId(10 + i as u16),
            format!("c{i}"),
            Some(ClassId(1)),
        ));
    }
    Arc::new(SchedulingTree::build(specs, TreeParams::default()).expect("tree builds"))
}

/// Aggregate decision rate (decisions/sec) with `threads` workers each
/// running `per_thread` decisions over its own class.
fn aggregate_rate(threads: usize, per_thread: u64) -> f64 {
    let t = tree();
    let labels: Vec<_> = (0..LEAVES as u16)
        .map(|i| t.label(ClassId(10 + i), &[]).expect("leaf exists"))
        .collect();
    let prog = Arc::new(CompiledProgram::compile(&t, labels.iter()).expect("labels of this tree"));
    let clock = WallClock::new();
    let start = Instant::now();
    std::thread::scope(|s| {
        for k in 0..threads {
            let t = Arc::clone(&t);
            let prog = Arc::clone(&prog);
            let clock = &clock;
            let label = labels[k % LEAVES];
            s.spawn(move || {
                let chain = prog.resolve(&label).expect("compiled chain");
                let mut exec = RealExec;
                for _ in 0..per_thread {
                    std::hint::black_box(t.run(
                        &prog,
                        chain,
                        WIRE_BITS,
                        clock.now(),
                        &mut exec,
                        &mut NoObserver,
                    ));
                }
            });
        }
    });
    (threads as u64 * per_thread) as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let full = std::env::var_os("FV_SCALING_FULL").is_some_and(|v| v != "0" && !v.is_empty());
    println!("scaling smoke: {cpus} CPUs available");

    if cpus < 4 {
        println!(
            "SKIP: thread scaling needs >= 4 CPUs, host has {cpus} — \
             the striped-path gate only enforces on multi-core hardware"
        );
        return;
    }

    const PER_THREAD: u64 = 400_000;
    // Warm-up pass so page faults and frequency ramp don't bias t1.
    let _ = aggregate_rate(1, PER_THREAD / 4);

    let base = aggregate_rate(1, PER_THREAD);
    let quad = aggregate_rate(4, PER_THREAD);
    let speedup4 = quad / base;
    println!(
        "  1 thread: {:.2} Mdec/s, 4 threads: {:.2} Mdec/s aggregate ({speedup4:.2}x)",
        base / 1e6,
        quad / 1e6
    );
    if speedup4 < 2.0 {
        eprintln!("FAIL: aggregate speedup at 4 threads is {speedup4:.2}x, need >= 2x");
        std::process::exit(1);
    }

    if full {
        if cpus < 8 {
            println!("SKIP full gate: 8-thread scaling needs >= 8 CPUs, host has {cpus}");
        } else {
            let octo = aggregate_rate(8, PER_THREAD);
            let speedup8 = octo / base;
            println!(
                "  8 threads: {:.2} Mdec/s aggregate ({speedup8:.2}x)",
                octo / 1e6
            );
            if speedup8 < 3.0 {
                eprintln!("FAIL: aggregate speedup at 8 threads is {speedup8:.2}x, need >= 3x");
                std::process::exit(1);
            }
        }
    }
    println!("scaling smoke ok");
}
