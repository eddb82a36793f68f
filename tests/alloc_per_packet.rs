//! Heap allocations per packet in the steady state of the two harnesses
//! the figures run through: Fig. 13 at 64 B through
//! `np_sim::harness::run_open_loop`, and Fig. 11b's closed loop through
//! `hostsim::engine::run`. Both are black boxes from set-up to report, so
//! each fixture runs twice, to a horizon and to twice it, and charges the
//! difference in allocations to the difference in packets: set-up and
//! warm-up cost the same in both runs and cancel. A counting global
//! allocator wraps `std::alloc::System`; the count is per thread, so other
//! tests running alongside do not leak into it. The demo and flow-churn
//! fixtures are in `crates/flowvalve/tests/alloc_per_packet.rs`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use flowvalve::pipeline::FlowValvePipeline;
use flowvalve::tree::TreeParams;
use hostsim::engine::run;
use hostsim::path::EgressPath;
use hostsim::policies;
use hostsim::scenario::Scenario;
use netstack::flow::FlowKey;
use netstack::gen::LineRateProcess;
use netstack::packet::{AppId, VfPort};
use np_sim::config::NicConfig;
use np_sim::harness::{run_open_loop, Source};
use np_sim::nic::SmartNic;
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

/// What the longer of two runs allocated and carried beyond the shorter.
#[derive(Debug)]
struct Extra {
    allocs: u64,
    packets: u64,
}

/// Runs `measure` to `horizon` and to twice it; `measure` returns the
/// packets its run handled and counts allocations only inside the run.
fn extra(horizon: Nanos, mut measure: impl FnMut(Nanos) -> (u64, u64)) -> Extra {
    let (short_allocs, short_packets) = measure(horizon);
    let (long_allocs, long_packets) = measure(horizon * 2);
    assert!(long_packets > short_packets);
    Extra {
        allocs: long_allocs.saturating_sub(short_allocs),
        packets: long_packets - short_packets,
    }
}

/// Fig. 13's FlowValve point at 64 B: the fair-queueing policy, four
/// sources at a quarter of twice line rate each, through `run_open_loop`.
fn fig13_64b(horizon: Nanos) -> (u64, u64) {
    let cfg = NicConfig::agilio_cx_40g();
    let scenario = Scenario::fair_queueing_40g(4);
    let policy = policies::fair_queueing_fv(cfg.line_rate, &scenario);
    let pipeline =
        FlowValvePipeline::compile(&policy, TreeParams::default(), &cfg).expect("compiles");
    let mut nic = SmartNic::new(cfg.clone(), Box::new(pipeline));
    let sources: Vec<Source> = (0..4u16)
        .map(|i| Source {
            flow: FlowKey::tcp([10, 0, 1 + i as u8, 1], 40_000, [10, 0, 255, 1], 9000 + i),
            app: AppId(i),
            vf: VfPort(i as u8),
            process: Box::new(LineRateProcess::new(
                cfg.line_rate.scaled(2, 4),
                64,
                cfg.framing,
            )),
        })
        .collect();
    let before = allocs();
    let report = run_open_loop(&mut nic, sources, horizon, 7);
    (allocs() - before, report.nic.offered)
}

#[test]
fn an_open_loop_64b_packet_allocates_nothing() {
    let run = extra(Nanos::from_micros(500), fig13_64b);
    assert!(run.packets > 50_000, "{run:?}");
    assert_eq!(run.allocs, 0, "{run:?}");
}

/// Fig. 11b's closed loop, four connections per app and the figure
/// drivers' burst windows (`bench::experiment_tree_params`), cut to its
/// first stage (App0 alone until figure-second 10).
fn fig11b(horizon: Nanos) -> (u64, u64) {
    let mut scenario = Scenario::fair_queueing_40g(4);
    scenario.horizon = horizon;
    let cfg = NicConfig::agilio_cx_40g();
    let params = TreeParams {
        burst_window: Nanos::from_millis(2),
        shadow_burst_window: Nanos::from_millis(1),
        ..TreeParams::default()
    };
    let policy = policies::fair_queueing_fv(scenario.link, &scenario);
    let pipeline = FlowValvePipeline::compile(&policy, params, &cfg).expect("compiles");
    let path = EgressPath::flowvalve(SmartNic::new(cfg, Box::new(pipeline)));
    let before = allocs();
    let (report, _path) = run(&scenario, path);
    (allocs() - before, report.delivered + report.dropped)
}

/// The closed loop's steady state, measured: 2 allocations over 57 762
/// packets between a 20 ms and a 40 ms run, both amortised doublings. One
/// is App0's `SeriesRecorder` slot vector (one slot per 25 µs bin, so it
/// passes 1 024 slots), the other the engine's event heap outgrowing the
/// 1 024 events it is built with. Across 5 ms … 160 ms runs the count grows
/// by about one per doubling of the horizon, never with the packets. A
/// ceiling.
const DOUBLING_ALLOCS: u64 = 2;

#[test]
fn a_closed_loop_packet_allocates_only_when_a_buffer_doubles() {
    let run = extra(Nanos::from_millis(20), fig11b);
    assert!(run.packets > 50_000, "{run:?}");
    assert!(run.allocs <= DOUBLING_ALLOCS, "{run:?}");
}
