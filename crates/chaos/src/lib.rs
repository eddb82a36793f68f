//! fv-chaos — deterministic fault injection for the FlowValve stack.
//!
//! Real SmartNIC deployments degrade in ways a clean simulation never
//! shows: links flap, micro-engines stall, traffic managers corrupt
//! frames, host applications pause. This crate schedules such failures as
//! *fault windows on the virtual clock* and drives them through hook
//! points in every layer — the NP model's traffic manager, worker pool
//! and lock table ([`np_sim::FaultInjector`]), the FlowValve scheduler
//! clock ([`flowvalve::pipeline::SchedChaosHook`]) and the host boundary
//! ([`hostsim::HostChaosHook`]) — so the *same* scheduler code runs
//! faulted or clean.
//!
//! Because every fault is a pure function of virtual time and all workload
//! randomness flows from the plan's seed, a faulted run is exactly
//! replayable: the same `(policy, plan)` pair yields a byte-identical
//! report, which is what makes a regression in recovery behaviour
//! diffable.
//!
//! - [`plan`] — the `chaos` command language and [`FaultPlan`]
//! - [`inject`] — the [`ChaosController`] answering every hook point
//! - [`harness`] — the saturation workload behind `fv demo`, written
//!   once: [`saturate`] runs it clean, [`run_chaos`] runs it faulted and
//!   adds per-fault recovery assertions from fv-scope. Both take the
//!   observers to carry as one [`Attachments`] value and leave a [`Run`]
//!   behind; every `fv` subcommand and every resilience test goes through
//!   one of the two.
//!
//! # Example
//!
//! ```
//! use flowvalve::frontend::Policy;
//! use fv_chaos::{run_chaos, saturate, Attachments, FaultPlan};
//!
//! let policy = Policy::parse(
//!     "fv qdisc add dev nic0 root handle 1: fv default 1:10\n\
//!      fv class add dev nic0 parent root classid 1:1 name root rate 40gbit\n\
//!      fv class add dev nic0 parent 1:1 classid 1:10 name all rate 40gbit\n\
//!      fv filter add dev nic0 match any flowid 1:10\n",
//! )
//! .unwrap();
//! let clean = saturate(&policy, 42, Attachments::default()).unwrap();
//! assert!(clean.snapshot.counter("nic.tx_packets") > 0);
//!
//! let plan = FaultPlan::parse(
//!     "chaos seed 42\n\
//!      chaos fault wire_flap at 3ms for 2ms permille 250\n",
//! )
//! .unwrap();
//! let report = run_chaos(&policy, &plan, Attachments::default()).unwrap();
//! assert_eq!(report.run.snapshot.counter("chaos.faults_injected"), 1);
//! assert!(report.passed(), "{}", report.render());
//! ```

pub mod harness;
pub mod inject;
pub mod plan;

pub use harness::{run_chaos, saturate, Attachments, Audit, ChaosReport, Run, RunError, SETTLE};
pub use inject::ChaosController;
pub use plan::{FaultKind, FaultPlan, FaultSpec, ParsePlanError};
