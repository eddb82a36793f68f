//! End-host model for the FlowValve reproduction.
//!
//! Assembles the workspace into runnable experiments: TCP applications on
//! SR-IOV virtual functions ([`scenario`]), three egress paths under test
//! ([`path`]: FlowValve offload, kernel HTB, DPDK QoS), and the
//! closed-loop ACK-clocked engine ([`engine`]) whose output time series
//! regenerate the paper's Figure 3 and Figure 11.
//!
//! # Example
//!
//! ```
//! use hostsim::engine::run;
//! use hostsim::path::EgressPath;
//! use hostsim::scenario::{AppSpec, Scenario};
//! use np_sim::config::NicConfig;
//! use np_sim::nic::{PassthroughDecider, SmartNic};
//! use sim_core::time::Nanos;
//! use sim_core::units::BitRate;
//!
//! let mut s = Scenario::new(BitRate::from_gbps(10.0), Nanos::from_millis(5));
//! s.apps.push(AppSpec::new("App0", 0, 0, 9000, 1, Nanos::ZERO, s.horizon));
//! let nic = SmartNic::new(NicConfig::agilio_cx_10g(), Box::new(PassthroughDecider));
//! let (report, _path) = run(&s, EgressPath::flowvalve(nic));
//! assert!(report.delivered > 0);
//! ```

pub mod engine;
pub mod path;
pub mod policies;
pub mod scenario;

pub use engine::{run, RunReport};
pub use path::{EgressPath, Outcome};
pub use scenario::{AppSpec, Scenario};
