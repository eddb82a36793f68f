//! Discrete-event simulation core for the FlowValve reproduction.
//!
//! This crate provides the substrate every other crate in the workspace is
//! built on:
//!
//! * [`time`] — integer-nanosecond time ([`Nanos`]) and processor cycles
//!   ([`Cycles`]) with explicit frequency conversions.
//! * [`units`] — bit-rate and size units with Ethernet wire-overhead helpers.
//! * [`clock`] — the [`Clock`] abstraction and the [`WallClock`] that
//!   runs the *same* scheduling code on real OS threads.
//! * [`event`] — a deterministic event queue ([`EventQueue`]) with stable
//!   FIFO ordering among simultaneous events.
//! * [`rng`] — seeded deterministic random numbers for reproducible
//!   experiments.
//! * [`series`] / [`stats`] — time-series recording, binning and summary
//!   statistics used by the benchmark harness to regenerate the paper's
//!   figures.
//! * [`fixed`] — the fixed-point token arithmetic shared by every token
//!   bucket in the workspace.
//!
//! # Example
//!
//! Run a tiny simulation that scores two events:
//!
//! ```
//! use sim_core::event::EventQueue;
//! use sim_core::time::Nanos;
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(Nanos::from_micros(5), "second");
//! q.schedule(Nanos::from_nanos(10), "first");
//!
//! let (t1, e1) = q.pop().expect("queue is non-empty");
//! assert_eq!((t1, e1), (Nanos::from_nanos(10), "first"));
//! let (_, e2) = q.pop().expect("queue is non-empty");
//! assert_eq!(e2, "second");
//! ```

pub mod chart;
pub mod clock;
pub mod event;
pub mod fixed;
pub mod rng;
pub mod series;
pub mod stats;
pub mod tick;
pub mod time;
pub mod units;

pub use chart::{multi_sparkline, sparkline};
pub use clock::{Clock, WallClock};
pub use event::EventQueue;
pub use rng::SimRng;
pub use series::{BinnedSeries, SeriesRecorder};
pub use stats::{Histogram, RunningStats};
pub use tick::Ticker;
pub use time::{Cycles, Freq, Nanos};
pub use units::{BitRate, ByteSize, WireFraming};
