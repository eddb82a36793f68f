//! Qdisc shootout: how many packets per second can each scheduler move,
//! and what does it cost in CPU?
//!
//! A compact version of the paper's Figure 13 argument, runnable in a few
//! seconds: sweep packet sizes, measure FlowValve's on-NIC throughput, and
//! put the software baselines' cost models next to it.
//!
//! Run with: `cargo run --release --example qdisc_shootout`

use flowvalve::sched::LockDiscipline;
use hostsim::policies;
use np_sim::config::NicConfig;
use np_sim::harness::run_open_loop;
use qdisc::costmodel::{DpdkCpuModel, KernelCpuModel};
use sim_core::time::Nanos;

fn main() {
    let cfg = NicConfig::agilio_cx_40g();
    let dpdk = DpdkCpuModel::default();
    let kernel = KernelCpuModel::default();

    println!("maximum scheduling throughput (Mpps), fair-queueing policy:\n");
    println!(
        "{:>6} {:>10} {:>12} {:>14} {:>14}",
        "size", "line", "flowvalve", "dpdk (4 core)", "kernel htb"
    );
    for size in [64u32, 512, 1518] {
        let (mut nic, sources) =
            policies::fair_queueing_saturation(&cfg, size, LockDiscipline::PerClass);
        let report = run_open_loop(&mut nic, sources, Nanos::from_millis(2), 9);

        let line = cfg.framing.line_rate_pps(cfg.line_rate, size as u64) / 1e6;
        let fv = report.tx_pps / 1e6;
        let d = dpdk.max_pps(4).min(line * 1e6) / 1e6;
        let k = kernel.max_pps(4) / 1e6;
        println!("{size:>5}B {line:>10.2} {fv:>12.2} {d:>14.2} {k:>14.2}");
    }

    println!("\nCPU cores to schedule 64 B packets at FlowValve's rate:");
    println!("  flowvalve : 0 host cores (it runs on the NIC)");
    println!("  dpdk-qos  : {} cores", dpdk.cores_needed(19.67e6));
    println!("  kernel-htb: cannot reach it at any core count (qdisc lock)");
}
