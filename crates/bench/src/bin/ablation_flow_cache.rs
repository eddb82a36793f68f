//! Ablation (paper Observation 2): the exact-match flow cache.
//!
//! Netronome's EMFC serves classification from dedicated lookup engines,
//! ~10x faster than walking the filter table. This driver measures the
//! NIC's maximum 64 B throughput with the cache enabled (steady-state
//! hits) versus disabled (every packet pays the table walk), and sweeps
//! the active-flow count against the cache capacity to show the falloff
//! once the working set stops fitting.
//!
//! Measurement is steady-state: the flow caches are per-island shards and
//! worker dispatch is earliest-available, so a flow cold-misses once per
//! island it visits. A warm-up window runs the full working set across
//! every island first; throughput and hit ratio are taken over the
//! measurement window that follows, from the cache-stats delta.
//!
//! Run: `cargo run --release -p bench --bin ablation_flow_cache`

use bench::{banner, write_json};
use flowvalve::pipeline::FlowValvePipeline;
use flowvalve::tree::TreeParams;
use hostsim::policies;
use hostsim::scenario::Scenario;
use netstack::flow::FlowKey;
use netstack::packet::{AppId, Packet, PacketIdGen, VfPort};
use np_sim::config::NicConfig;
use np_sim::nic::{RxOutcome, SmartNic};
use sim_core::time::Nanos;

const HORIZON: Nanos = Nanos::from_millis(2);
/// Long enough for every (flow, island) pair to take its one cold miss
/// even at the largest sweep point (4 096 flows x 8 shards) before the
/// measurement window opens.
const WARMUP: Nanos = Nanos::from_millis(6);

/// Runs 64 B line-rate traffic over `flows` distinct flows through a NIC
/// whose flow cache is the pipeline's default or, with `cache_small`, one
/// entry per island shard (8 in all), which thrashes for any flow count
/// above that and so models "no cache". Returns achieved Mpps and the
/// cache hit ratio.
fn measure(flows: u16, cache_small: bool) -> (f64, f64) {
    let cfg = NicConfig::agilio_cx_40g();
    let scenario = Scenario::fair_queueing_40g(4);
    let policy = policies::fair_queueing_fv(cfg.line_rate, &scenario);
    // The pipeline's cache capacity is fixed; emulate "disabled" by
    // thrashing it with one entry per shard.
    let pipeline = if cache_small {
        // Rebuild with a capacity of 1 (rounded up to one entry in each of
        // the 8 shards) through the public parts API.
        let (tree, rules, default) = policy.compile(TreeParams::default()).expect("compiles");
        let mut classifier = classifier::Classifier::new(default, 1);
        for r in rules {
            classifier.add_rule(r);
        }
        FlowValvePipeline::from_classifier(std::sync::Arc::new(tree), classifier, &cfg)
            .expect("labels built by this tree")
    } else {
        FlowValvePipeline::compile(&policy, TreeParams::default(), &cfg).expect("compiles")
    };
    let mut nic = SmartNic::new(cfg, Box::new(pipeline));

    let mut ids = PacketIdGen::new();
    let mut t = Nanos::ZERO;
    let mut tx = 0u64;
    let gap = Nanos::from_nanos(17); // ~59 Mpps offered
    let mut i = 0u64;
    let end = WARMUP + HORIZON;
    // Cache traffic at the warm-up boundary; the reported hit ratio is the
    // delta over the measurement window only.
    let mut warm_stats = None;
    while t < end {
        if warm_stats.is_none() && t >= WARMUP {
            warm_stats = Some(
                nic.decider_as::<FlowValvePipeline>()
                    .expect("flowvalve decider")
                    .cache_stats(),
            );
        }
        let f = (i % flows as u64) as u16;
        let flow = FlowKey::tcp(
            [10, 0, (f >> 8) as u8, f as u8],
            40_000,
            [10, 0, 255, 1],
            9000,
        );
        let pkt = Packet::new(ids.next_id(), flow, 64, AppId(0), VfPort(0), t);
        if let RxOutcome::Transmit { wire_done, .. } = nic.rx(&pkt, t) {
            if wire_done > WARMUP && wire_done <= end {
                tx += 1;
            }
        }
        i += 1;
        t += gap;
    }
    let warm = warm_stats.expect("warm-up boundary crossed");
    let total = nic
        .decider_as::<FlowValvePipeline>()
        .expect("flowvalve decider")
        .cache_stats();
    let hits = total.hits - warm.hits;
    let lookups = hits + (total.misses - warm.misses);
    let hit = if lookups == 0 {
        0.0
    } else {
        hits as f64 / lookups as f64
    };
    (tx as f64 / HORIZON.as_secs_f64() / 1e6, hit)
}

fn main() {
    banner(
        "Observation 2 ablation",
        "exact-match flow cache on/off, 64 B line-rate injection",
    );
    println!(
        "\n{:<22} {:>8} {:>12} {:>10}",
        "configuration", "flows", "Mpps", "hit ratio"
    );
    let mut rows = Vec::new();
    for (name, flows, small) in [
        ("cache (fits)", 256u16, false),
        ("cache (fits)", 4_096, false),
        ("cache thrashed", 256, true),
        ("cache thrashed", 4_096, true),
    ] {
        let (mpps, hit) = measure(flows, small);
        println!("{name:<22} {flows:>8} {mpps:>12.2} {:>9.1}%", hit * 100.0);
        rows.push((name.to_owned(), flows, mpps, hit));
    }
    println!("\nwith the cache thrashed every packet pays the filter-table walk");
    println!("(~10x the hit cost), and the 64 B compute bound collapses accordingly —");
    println!("the reason the paper's labeling function leans on the EMFC accelerator.");
    let p = write_json("ablation_flow_cache", &rows);
    println!("results -> {}", p.display());
}
