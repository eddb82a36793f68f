//! Figure 7 ablation: scheduling-tree update disciplines.
//!
//! The paper contrasts three update procedures: unsynchronized (invalid —
//! data races corrupt the shared tree), a single global lock (valid but
//! serializes packet forwarding), and FlowValve's per-class try-locks
//! (valid *and* parallel). This driver measures the throughput cost of
//! the global-lock discipline against per-class try-locks on the NIC
//! model; the unsynchronized variant is not modelled.
//!
//! Run: `cargo run --release -p bench --bin fig07_lock_ablation`

use bench::{banner, write_json};
use flowvalve::pipeline::{FlowValvePipeline, LockDiscipline};
use flowvalve::tree::TreeParams;
use hostsim::policies;
use hostsim::scenario::Scenario;
use netstack::flow::FlowKey;
use netstack::gen::LineRateProcess;
use netstack::packet::{AppId, VfPort};
use np_sim::config::NicConfig;
use np_sim::harness::{run_open_loop, Source};
use np_sim::nic::SmartNic;
use sim_core::time::Nanos;

fn measure(discipline: LockDiscipline, frame: u32) -> (f64, f64) {
    let cfg = NicConfig::agilio_cx_40g();
    let scenario = Scenario::fair_queueing_40g(4);
    let policy = policies::fair_queueing_fv(cfg.line_rate, &scenario);
    let pipeline = FlowValvePipeline::compile(&policy, TreeParams::default(), &cfg)
        .expect("policy compiles")
        .with_lock_discipline(discipline);
    let mut nic = SmartNic::new(cfg.clone(), Box::new(pipeline));
    let sources: Vec<Source> = (0..4u16)
        .map(|i| Source {
            flow: FlowKey::tcp([10, 0, 1 + i as u8, 1], 40_000, [10, 0, 255, 1], 9000 + i),
            app: AppId(i),
            vf: VfPort(i as u8),
            process: Box::new(LineRateProcess::new(
                cfg.line_rate.scaled(2, 4),
                frame,
                cfg.framing,
            )),
        })
        .collect();
    let report = run_open_loop(&mut nic, sources, Nanos::from_millis(4), 3);
    (report.tx_pps / 1e6, report.throughput.as_gbps())
}

fn main() {
    banner(
        "Figure 7 (ablation)",
        "scheduling-tree update disciplines: per-class try-lock vs global lock",
    );

    println!(
        "\n{:<22} {:>10} {:>10}",
        "discipline", "64B Mpps", "1518B Gbps"
    );
    let mut rows = Vec::new();
    for (name, d) in [
        ("per-class try-lock", LockDiscipline::PerClass),
        ("global blocking lock", LockDiscipline::Global),
    ] {
        let (mpps64, _) = measure(d, 64);
        let (_, gbps1518) = measure(d, 1518);
        println!("{name:<22} {mpps64:>10.2} {gbps1518:>10.2}");
        rows.push((name.to_owned(), mpps64, gbps1518));
    }

    let slowdown = rows[0].1 / rows[1].1.max(1e-9);
    println!("\nper-class parallelism is {slowdown:.1}x faster at 64 B —");
    println!("the global lock turns packet forwarding single-threaded (paper Figure 7(b)),");
    println!("which is why naively transplanting the kernel qdisc onto an NP fails.");

    let p = write_json("fig07_lock_ablation", &rows);
    println!("results -> {}", p.display());
}
