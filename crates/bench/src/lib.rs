//! The paper's figures as functions.
//!
//! Each module regenerates one figure or table of the paper: its
//! `figure` function writes the text a reader compares with the paper
//! into the `String` it is given and returns the figure's rows as JSON.
//! [`FIGURES`] lists them once; the `figures` binary runs every entry and
//! writes `results/<name>.txt` and `results/<name>.json`. The rest of this
//! library is what the figures share: the FlowValve egress path under
//! test and the throughput tables of the closed-loop runs.

use std::fmt;
use std::io;
use std::path::Path;

use flowvalve::frontend::Policy;
use flowvalve::pipeline::FlowValvePipeline;
use fv_telemetry::JsonValue;
use hostsim::engine::RunReport;
use hostsim::path::EgressPath;
use hostsim::scenario::{experiment_tree_params, Scenario};
use np_sim::config::NicConfig;
use np_sim::nic::SmartNic;

/// What a figure's text is written into: `writeln!(out, ...)` on a
/// `String` with this trait in scope returns `()`, as growing a `String`
/// cannot fail.
pub trait FigureText {
    /// Appends `args`.
    fn write_fmt(&mut self, args: fmt::Arguments<'_>);
}

impl FigureText for String {
    fn write_fmt(&mut self, args: fmt::Arguments<'_>) {
        fmt::Write::write_fmt(self, args).expect("a String takes any write");
    }
}

pub mod ablation_flow_cache;
pub mod ablation_nic_scheduler;
pub mod ablation_update_interval;
pub mod discussion_100g;
pub mod fig03_htb_motivation;
pub mod fig07_lock_ablation;
pub mod fig10_propagation_delay;
pub mod fig11a_flowvalve_motivation;
pub mod fig11b_fair_queueing;
pub mod fig11c_weighted_fairness;
pub mod fig13_max_throughput;
pub mod fig14_one_way_delay;

/// One figure: the file stem of its results, the banner above its text,
/// and the function that computes it.
pub struct Figure {
    /// `results/<name>.txt` and `results/<name>.json`; also its module.
    pub name: &'static str,
    /// Which figure of the paper, as the banner names it.
    pub id: &'static str,
    /// What the figure shows, after the id in the banner.
    pub caption: &'static str,
    /// Appends the figure's text and returns its rows.
    pub run: fn(&mut String) -> JsonValue,
}

impl Figure {
    /// Runs the figure and writes `<dir>/<name>.txt`, its banner and text,
    /// and `<dir>/<name>.json`, its rows.
    pub fn write(&self, dir: &Path) -> io::Result<()> {
        let rule = "=".repeat(62);
        let mut text = format!("{rule}\n{}: {}\n{rule}\n", self.id, self.caption);
        let rows = (self.run)(&mut text);
        let json = dir.join(format!("{}.json", self.name));
        writeln!(text, "results -> {}", json.display());
        std::fs::write(&json, rows.to_pretty())?;
        std::fs::write(dir.join(format!("{}.txt", self.name)), text)
    }
}

macro_rules! figure {
    ($module:ident, $id:literal, $caption:literal) => {
        Figure {
            name: stringify!($module),
            id: $id,
            caption: $caption,
            run: $module::figure,
        }
    };
}

/// Every figure, slowest first: the runner's workers take entries in
/// order, so Fig. 11(b), about half of the whole set, starts at once.
#[rustfmt::skip]
pub const FIGURES: &[Figure] = &[
    figure!(fig11b_fair_queueing, "Figure 11(b)", "40 Gbps fair queueing, staged app joins"),
    figure!(fig11c_weighted_fairness, "Figure 11(c)", "40 Gbps weighted fair queueing (Figure 12 policy)"),
    figure!(fig03_htb_motivation, "Figure 3", "kernel HTB + PRIO on 10 Gbps (CentOS 7 artifacts)"),
    figure!(fig11a_flowvalve_motivation, "Figure 11(a)", "FlowValve on 10 Gbps (motivation policy)"),
    figure!(fig14_one_way_delay, "Figure 14", "one-way delay under saturating fair-queueing TCP load"),
    figure!(fig13_max_throughput, "Figure 13", "max throughput vs packet size (fair queueing, full-speed injection)"),
    figure!(fig07_lock_ablation, "Figure 7 (ablation)", "scheduling-tree update disciplines: per-class try-lock vs global lock"),
    figure!(fig10_propagation_delay, "Figure 10 (analysis)", "propagation delay of token-rate changes through the priority chain"),
    figure!(discussion_100g, "§VI discussion", "FlowValve on a hypothetical 100 GbE part"),
    figure!(ablation_flow_cache, "Observation 2 ablation", "exact-match flow cache on/off, 64 B line-rate injection"),
    figure!(ablation_nic_scheduler, "§II-B ablation", "fixed-function NIC scheduler vs FlowValve on a conditional policy"),
    figure!(ablation_update_interval, "ΔT / burst ablation", "update interval and burst window vs rate conformance"),
];

/// Builds the FlowValve egress path for a policy on the given NIC profile.
///
/// # Panics
///
/// Panics if the policy fails to compile — experiment policies are static
/// and must be valid.
pub fn flowvalve_path(policy: &Policy, nic_cfg: NicConfig) -> EgressPath {
    let pipeline = FlowValvePipeline::compile(policy, experiment_tree_params(), &nic_cfg)
        .expect("experiment policy compiles");
    EgressPath::flowvalve(SmartNic::new(nic_cfg, Box::new(pipeline)))
}

/// Appends a closed-loop run's shared-scale sparklines (the
/// eyeball-against-the-paper view) and, with `table`, its per-app
/// throughput per figure second.
pub fn throughput_charts(out: &mut String, scenario: &Scenario, report: &RunReport, table: bool) {
    let all = report.recorder.binned_all(scenario.time_scale);
    writeln!(out, "\nthroughput over figure time:\n");
    out.push_str(&sim_core::chart::multi_sparkline(&all));
    if !table {
        return;
    }
    writeln!(out, "\nper-figure-second throughput (Gbps):\n");
    out.push_str("fig_s");
    for s in &all {
        out.push('\t');
        out.push_str(&s.name);
    }
    out.push('\n');
    let nbins = all.first().map(|s| s.rates.len()).unwrap_or(0);
    for i in 0..nbins {
        out.push_str(&format!("{i}"));
        for s in &all {
            out.push_str(&format!("\t{:.2}", s.rates[i].as_gbps()));
        }
        out.push('\n');
    }
}

/// Appends the motivation example's summary windows (Figs. 3 and 11(a)),
/// in figure seconds: NC while present, the three classes left after NC
/// stops at 15 s, and the two left after ML stops at 30 s.
pub fn motivation_windows(out: &mut String, scenario: &Scenario, report: &RunReport) {
    writeln!(out, "\nwindow summaries:");
    for (app, from, to) in [
        ("NC", 2.0, 15.0),
        ("KVS", 17.0, 30.0),
        ("ML", 17.0, 30.0),
        ("WS", 17.0, 30.0),
        ("KVS", 32.0, 45.0),
        ("WS", 32.0, 45.0),
    ] {
        let gbps = report.mean_gbps(scenario, app, from, to);
        writeln!(
            out,
            "{app:<6} [{from:>4.1}s..{to:>4.1}s) = {gbps:>6.2} Gbps"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hostsim::policies;

    #[test]
    fn paths_assemble_for_the_motivation_experiment() {
        let scenario = Scenario::motivation_example();
        let fv = flowvalve_path(
            &policies::motivation_fv(scenario.link),
            NicConfig::agilio_cx_10g(),
        );
        assert_eq!(fv.name(), "flowvalve");
    }

    #[test]
    fn json_written_to_results_dir() {
        let dir = std::env::temp_dir().join(format!("fv-figures-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let fig = FIGURES.iter().find(|f| f.name == "ablation_nic_scheduler");
        fig.unwrap().write(&dir).unwrap();
        let json = std::fs::read_to_string(dir.join("ablation_nic_scheduler.json")).unwrap();
        assert_eq!(JsonValue::parse(&json).unwrap().as_arr().unwrap().len(), 4);
        let text = std::fs::read_to_string(dir.join("ablation_nic_scheduler.txt")).unwrap();
        assert!(text.contains("\n§II-B ablation: fixed-function"), "{text}");
        assert!(text.ends_with("/ablation_nic_scheduler.json\n"), "{text}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
