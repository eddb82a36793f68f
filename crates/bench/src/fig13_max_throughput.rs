//! Figure 13: maximum packet throughput vs frame size — FlowValve on the
//! NIC model vs the DPDK QoS Scheduler's cores-per-Mpps tradeoff, both
//! enforcing the fair-queueing policy under full-speed fixed-size
//! injection.
//!
//! Paper anchors: FlowValve 1518 B = 3.23 Mpps (line rate), 1024 B =
//! 4.75 Mpps (line rate), 64 B = 19.69 Mpps (compute-bound); DPDK 1518 B =
//! 2.25 Mpps on one core, 64 B = 9.06 Mpps on four cores, and ~8 cores to
//! match FlowValve's 19.69 Mpps.

use flowvalve::sched::LockDiscipline;
use fv_telemetry::{JsonValue, ToJson};
use hostsim::policies;
use np_sim::config::NicConfig;
use np_sim::harness::run_open_loop;
use qdisc::costmodel::{DpdkCpuModel, KernelCpuModel};
use sim_core::time::Nanos;

use crate::FigureText;

/// Measures FlowValve's max throughput for one frame size: four sources at
/// an aggregate far beyond line rate, fair-queueing policy installed.
fn flowvalve_mpps(frame_len: u32) -> (f64, f64) {
    let cfg = NicConfig::agilio_cx_40g();
    let (mut nic, sources) =
        policies::fair_queueing_saturation(&cfg, frame_len, LockDiscipline::PerClass);
    let report = run_open_loop(&mut nic, sources, Nanos::from_millis(4), 7);
    (report.tx_pps / 1e6, report.throughput.as_gbps())
}

/// Runs the figure; see the module docs.
pub fn figure(out: &mut String) -> JsonValue {
    let cfg = NicConfig::agilio_cx_40g();
    let dpdk = DpdkCpuModel::default();
    let kernel = KernelCpuModel::default();

    writeln!(
        out,
        "\n{:>6} {:>10} | {:>12} {:>9} | {:>12} {:>6} | {:>12}",
        "size", "line Mpps", "FV Mpps", "FV Gbps", "DPDK Mpps", "cores", "HTB Mpps"
    );

    let mut rows = Vec::new();
    for &size in &[64u32, 128, 256, 512, 1024, 1518] {
        let line_pps = cfg.framing.line_rate_pps(cfg.line_rate, size as u64) / 1e6;
        let (fv_mpps, fv_gbps) = flowvalve_mpps(size);

        // DPDK: achieves min(line, cores' capacity); cores chosen as the
        // count needed to match FlowValve's rate (capped at 8 as in the
        // paper's host).
        let target = fv_mpps * 1e6;
        let cores = dpdk.cores_needed(target.min(dpdk.max_pps(8))).clamp(1, 8);
        let dpdk_mpps = dpdk.max_pps(cores).min(line_pps * 1e6) / 1e6;

        // Kernel HTB: qdisc-lock bound regardless of size (paper omits it
        // above 10 Gbps because it cannot enforce policy there).
        let htb_mpps = kernel.max_pps(4) / 1e6;

        writeln!(
            out,
            "{size:>5}B {line_pps:>10.2} | {fv_mpps:>12.2} {fv_gbps:>9.2} | {dpdk_mpps:>12.2} {cores:>6} | {htb_mpps:>12.2}"
        );
        rows.push((size, fv_mpps, fv_gbps, dpdk_mpps, cores, htb_mpps));
    }

    out.push_str(concat!(
        "\npaper anchors: FV 19.69 Mpps @64B, 3.23 @1518B; DPDK 9.06 @64B (4 cores), 2.25 @1518B (1 core)\n",
        "CPU-core savings: FlowValve uses 0 host cores for scheduling;\n",
    ));
    writeln!(
        out,
        "matching its 64B rate costs DPDK ~{} cores (paper: ~8).",
        dpdk.cores_needed(rows[0].1 * 1e6)
    );
    rows.to_json()
}
