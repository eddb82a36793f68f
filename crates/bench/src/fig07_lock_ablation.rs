//! Figure 7 ablation: scheduling-tree update disciplines.
//!
//! The paper contrasts three update procedures: unsynchronized (invalid —
//! data races corrupt the shared tree), a single global lock (valid but
//! serializes packet forwarding), and FlowValve's per-class try-locks
//! (valid *and* parallel). This figure measures the throughput cost of
//! the global-lock discipline against per-class try-locks on the NIC
//! model; the unsynchronized variant is not modelled.

use flowvalve::sched::LockDiscipline;
use fv_telemetry::{JsonValue, ToJson};
use hostsim::policies;
use np_sim::config::NicConfig;
use np_sim::harness::run_open_loop;
use sim_core::time::Nanos;

use crate::FigureText;

fn measure(discipline: LockDiscipline, frame: u32) -> (f64, f64) {
    let cfg = NicConfig::agilio_cx_40g();
    let (mut nic, sources) = policies::fair_queueing_saturation(&cfg, frame, discipline);
    let report = run_open_loop(&mut nic, sources, Nanos::from_millis(4), 3);
    (report.tx_pps / 1e6, report.throughput.as_gbps())
}

/// Runs the figure; see the module docs.
pub fn figure(out: &mut String) -> JsonValue {
    writeln!(
        out,
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
        writeln!(out, "{name:<22} {mpps64:>10.2} {gbps1518:>10.2}");
        rows.push((name, mpps64, gbps1518));
    }

    let slowdown = rows[0].1 / rows[1].1.max(1e-9);
    writeln!(
        out,
        "\nper-class parallelism is {slowdown:.1}x faster at 64 B —"
    );
    writeln!(
        out,
        "the global lock turns packet forwarding single-threaded (paper Figure 7(b)),"
    );
    writeln!(
        out,
        "which is why naively transplanting the kernel qdisc onto an NP fails."
    );
    rows.to_json()
}
