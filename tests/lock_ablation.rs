//! Figure 7's lock ablation: the mechanism on one NIC.
//!
//! FlowValve's per-class try-locks never block (paper Fig. 7(c)); one
//! global blocking lock serializes every packet's updates (Fig. 7(b)). The
//! conclusion on the committed result, per-class at least five times the
//! global lock's 64 B rate, is a case of `tests/paper_checkpoints.rs`;
//! `scripts/check.sh` fails when a rerun no longer reproduces that file, so
//! the case holds the model, not only the file.

use flowvalve::frontend::Policy;
use flowvalve::pipeline::FlowValvePipeline;
use flowvalve::sched::LockDiscipline;
use flowvalve::tree::TreeParams;
use netstack::flow::FlowKey;
use netstack::gen::LineRateProcess;
use netstack::packet::{AppId, VfPort};
use np_sim::config::NicConfig;
use np_sim::harness::{run_open_loop, Source};
use np_sim::nic::SmartNic;
use sim_core::time::Nanos;

/// Under 64 B line-rate load the workers queue on the global lock, and
/// `SmartNic::lock_stats` counts the contended acquires and their wait;
/// per-class try-locks never wait.
#[test]
fn a_global_lock_under_load_contends_and_waits() {
    let cfg = NicConfig::agilio_cx_40g();
    let policy = Policy::parse(
        "fv qdisc add dev nic0 root handle 1: fv\n\
         fv class add dev nic0 parent root classid 1:1 rate 40gbit\n\
         fv class add dev nic0 parent 1:1 classid 1:10 name a rate 20gbit\n\
         fv class add dev nic0 parent 1:1 classid 1:20 name b rate 20gbit\n\
         fv filter add dev nic0 match ip dport 5001 flowid 1:10\n\
         fv filter add dev nic0 match ip dport 5002 flowid 1:20\n",
    )
    .unwrap();
    let [per_class, global] = [LockDiscipline::PerClass, LockDiscipline::Global].map(|d| {
        let pipe = FlowValvePipeline::compile(&policy, TreeParams::default(), &cfg)
            .unwrap()
            .with_lock_discipline(d);
        let mut nic = SmartNic::new(cfg.clone(), Box::new(pipe));
        let sources = (0..2u16)
            .map(|i| Source {
                flow: FlowKey::tcp([10, 0, 0, 1 + i as u8], 40_000, [10, 0, 255, 1], 5001 + i),
                app: AppId(i),
                vf: VfPort(i as u8),
                process: Box::new(LineRateProcess::new(cfg.line_rate, 64, cfg.framing)),
            })
            .collect();
        run_open_loop(&mut nic, sources, Nanos::from_micros(200), 1);
        nic.lock_stats()
    });
    assert!(
        global.contended > 0 && global.wait_total > Nanos::ZERO,
        "{global:?}"
    );
    assert_eq!(
        (per_class.contended, per_class.wait_total),
        (0, Nanos::ZERO)
    );
}
