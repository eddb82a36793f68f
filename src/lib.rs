//! The FlowValve reproduction suite: a facade over the workspace crates
//! plus the integration tests (`tests/`) and runnable examples
//! (`examples/`).
//!
//! Start with the [`flowvalve`] crate for the paper's contribution, or run
//! `cargo run --example quickstart` for a guided tour. The benchmark
//! harness regenerating every figure of the paper lives in the `bench`
//! crate (`cargo run --release -p bench` writes them all to `results/`).

pub use classifier;
pub use flowvalve;
pub use hostsim;
pub use netstack;
pub use np_sim;
pub use qdisc;
pub use sim_core;
