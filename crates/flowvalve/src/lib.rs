//! **FlowValve**: packet scheduling offloaded on NP-based SmartNICs —
//! a full Rust reproduction of the ICDCS 2022 paper.
//!
//! FlowValve abstracts the NIC's wire-side queues as a single FIFO and
//! performs *specialized tail drop* to mix that FIFO with the flow
//! proportions a policy demands: instead of shaping (buffer + resend,
//! impossible under run-to-completion NPs), it predicts which packets a
//! hypothetical shaper would drop and drops them early. Rate control is
//! hierarchical token buckets; bandwidth sharing is shadow buckets holding
//! each class's lendable tokens; everything is updated asynchronously by
//! whichever worker core wins a per-class try-lock.
//!
//! # Crate layout
//!
//! | module | paper section |
//! |---|---|
//! | [`label`] — QoS labels (hierarchy + borrowing) | §IV-B |
//! | [`tree`] — scheduling trees, token rates θ, measured rates Γ | §IV-B, §IV-C |
//! | [`bucket`] — lock-free token & shadow buckets | §IV-C, Figure 8 |
//! | [`sched`] — the parallel scheduling function, written once | Algorithm 1 |
//! | [`program`] — admission chains: labels resolved to node indices at compile time | Algorithm 1, flattened |
//! | [`frontend`] — the `fv` command language | §III-E |
//! | [`pipeline`] — labeling + scheduling on the NIC model | Figure 5 |
//!
//! # Quickstart
//!
//! ```
//! use flowvalve::frontend::Policy;
//! use flowvalve::pipeline::FlowValvePipeline;
//! use flowvalve::tree::TreeParams;
//! use np_sim::config::NicConfig;
//! use np_sim::nic::SmartNic;
//!
//! // 1. Describe the policy in fv commands (a tc dialect).
//! let policy = Policy::parse(
//!     "fv qdisc add dev nic0 root handle 1: fv default 1:20\n\
//!      fv class add dev nic0 parent root classid 1:1 rate 10gbit\n\
//!      fv class add dev nic0 parent 1:1 classid 1:10 name prio prio 0\n\
//!      fv class add dev nic0 parent 1:1 classid 1:20 name bulk prio 1\n\
//!      fv filter add dev nic0 match ip dport 5001 flowid 1:10\n",
//! )?;
//!
//! // 2. Compile it onto a SmartNIC model.
//! let cfg = NicConfig::agilio_cx_10g();
//! let pipeline = FlowValvePipeline::compile(&policy, TreeParams::default(), &cfg)?;
//! let nic = SmartNic::new(cfg, Box::new(pipeline));
//!
//! // 3. Drive packets through `nic.rx(...)` (see the examples/ directory).
//! # let _ = nic;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod bucket;
pub mod error;
pub mod frontend;
pub mod label;
pub mod pipeline;
pub mod program;
pub mod sched;
#[cfg(test)]
mod snapshot;
pub mod tree;

pub use bucket::{Color, TokenBucket};
pub use error::{BuildTreeError, ParseFvError};
pub use frontend::{FilterSpec, Policy};
pub use label::{ClassId, QosLabel};
pub use pipeline::FlowValvePipeline;
pub use program::{ChainId, CompiledProgram};
pub use sched::{Exec, LockDiscipline, RealExec, SchedVerdict, SimExec};
pub use tree::{ClassCounters, ClassSpec, SchedulingTree, TreeParams};
