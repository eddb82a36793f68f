//! An executable model of an NP-based SmartNIC (Netronome Agilio-like)
//! for the FlowValve reproduction.
//!
//! The paper prototypes FlowValve on real silicon; this crate substitutes a
//! calibrated discrete-time model that preserves the properties the paper's
//! claims rest on:
//!
//! * **Run-to-completion multi-core processing** ([`engine`]): packets are
//!   pulled by the earliest-available micro-engine; aggregate throughput is
//!   `num_mes × freq / cycles_per_packet`, the regime behind Figure 13.
//! * **Explicit cycle accounting** ([`cost`]): every pipeline stage charges
//!   instruction cycles to a [`CostMeter`].
//! * **Modeled lock contention** ([`lock`]): virtual-time `try_acquire` /
//!   blocking acquire semantics with wait accounting — the substrate for
//!   the paper's Figure 7 lock-granularity comparison.
//! * **An uncontrollable wire-side FIFO** ([`tm`]): the transmit buffer +
//!   traffic manager reduce to a fixed-rate serializer with tail drop,
//!   which is exactly the abstraction FlowValve schedules against.
//! * **A pluggable egress decision hook** ([`nic::EgressDecider`]) where
//!   the `flowvalve` crate installs its labeling + scheduling functions.
//! * **An open-loop stress harness** ([`harness`]) for the Figure 13/14
//!   experiments.
//!
//! # Example
//!
//! ```
//! use np_sim::config::NicConfig;
//! use np_sim::nic::{PassthroughDecider, SmartNic};
//!
//! let nic = SmartNic::new(NicConfig::agilio_cx_40g(), Box::new(PassthroughDecider));
//! assert_eq!(nic.config().num_mes, 50);
//! ```

pub mod config;
pub mod cost;
pub mod engine;
pub mod fault;
pub mod harness;
pub mod lock;
pub mod nic;
pub mod tm;
pub mod tm_multi;

use std::sync::Arc;

use fv_telemetry::{Counter, Registry};

pub use config::{CycleCosts, NicConfig};
pub use cost::{AttrCell, AttrStage, CostMeter, CycleAttr, Op, ATTR_STAGES};
pub use fault::{FaultInjector, TmFault};
pub use lock::{LockId, LockTable, PerLockStats};
pub use nic::{Decision, EgressDecider, NicStats, PassthroughDecider, RxOutcome, SmartNic};
pub use tm::{TmDrop, TxFifo};
pub use tm_multi::{HwQueueConfig, MultiQueueTm};

/// Moves one exact tally into `registry`: `cell` becomes the registered
/// counter `name`, which takes over what `cell` had counted. A component
/// keeps one cell per event — its own until a registry is attached, the
/// registry's from then on — never a second count beside it.
pub(crate) fn register_cell(registry: &Registry, name: &str, cell: &mut Arc<Counter>) {
    let registered = registry.counter(name);
    if !Arc::ptr_eq(cell, &registered) {
        registered.add(cell.total());
        *cell = registered;
    }
}
