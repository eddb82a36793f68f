//! The unified drop-cause taxonomy.
//!
//! Every layer that can refuse a packet — the FlowValve admission chains,
//! the software qdisc baselines, and the np-sim traffic manager — used to
//! carry its own two-variant enum (`QueueDrop`, `TmDrop`) or an untyped
//! counter. [`DropCause`] folds them into one taxonomy so provenance
//! records, ledgers and counters can speak a single language; the old
//! names survive as type aliases at their original paths.

use std::sync::{Arc, OnceLock};

use crate::{Counter, Registry};

/// Why a packet was refused, anywhere in the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropCause {
    /// The leaf class token bucket had too few tokens and no lender could
    /// cover the packet (FlowValve admission drop).
    NoTokens,
    /// The class ceiling bucket refused the packet — the HTB-style bound
    /// that caps borrowing (FlowValve ceiling drop).
    OverCeil,
    /// A queue's packet-count limit was reached (software qdiscs).
    OverPkts,
    /// A queue's byte limit would be exceeded (software qdiscs).
    OverBytes,
    /// The traffic-manager transmit FIFO was full (np-sim TM).
    TailDrop,
    /// The traffic manager discarded a corrupted descriptor — only ever
    /// produced by injected faults (fv-chaos).
    CorruptDrop,
}

impl DropCause {
    /// Every cause, in a stable order (counter registration, docs).
    pub const ALL: [DropCause; 6] = [
        DropCause::NoTokens,
        DropCause::OverCeil,
        DropCause::OverPkts,
        DropCause::OverBytes,
        DropCause::TailDrop,
        DropCause::CorruptDrop,
    ];

    /// Stable snake_case name, used as the counter-name suffix.
    pub fn name(&self) -> &'static str {
        match self {
            DropCause::NoTokens => "no_tokens",
            DropCause::OverCeil => "over_ceil",
            DropCause::OverPkts => "over_pkts",
            DropCause::OverBytes => "over_bytes",
            DropCause::TailDrop => "tail_drop",
            DropCause::CorruptDrop => "corrupt_drop",
        }
    }

    /// Position in [`Self::ALL`].
    fn slot(&self) -> usize {
        match self {
            DropCause::NoTokens => 0,
            DropCause::OverCeil => 1,
            DropCause::OverPkts => 2,
            DropCause::OverBytes => 3,
            DropCause::TailDrop => 4,
            DropCause::CorruptDrop => 5,
        }
    }
}

impl core::fmt::Display for DropCause {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // The qdisc and TM strings predate the unified enum; they are part
        // of rendered CLI output and stay byte-identical.
        match self {
            DropCause::NoTokens => write!(f, "class out of tokens"),
            DropCause::OverCeil => write!(f, "class over ceiling"),
            DropCause::OverPkts => write!(f, "queue over packet limit"),
            DropCause::OverBytes => write!(f, "queue over byte limit"),
            DropCause::TailDrop => write!(f, "traffic-manager tail drop"),
            DropCause::CorruptDrop => {
                write!(f, "traffic-manager corruption drop (injected fault)")
            }
        }
    }
}

impl std::error::Error for DropCause {}

/// Lazily registered per-cause drop counters under a fixed prefix
/// (`<prefix>.drop.<cause>`), following the fv-chaos convention: nothing
/// is registered until the first drop of that cause actually happens, so
/// snapshots of clean runs keep their schema.
#[derive(Debug)]
pub struct CauseCounters {
    registry: Registry,
    prefix: String,
    slots: [OnceLock<Arc<Counter>>; 6],
}

impl CauseCounters {
    /// Creates the lazy family; no counters are registered yet.
    pub fn new(registry: &Registry, prefix: impl Into<String>) -> Self {
        CauseCounters {
            registry: registry.clone(),
            prefix: prefix.into(),
            slots: Default::default(),
        }
    }

    /// Counts one drop of `cause`, registering the counter on first use.
    pub fn incr(&self, cause: DropCause) {
        let c = self.slots[cause.slot()].get_or_init(|| {
            self.registry
                .counter(&format!("{}.drop.{}", self.prefix, cause.name()))
        });
        c.incr();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable_and_distinct() {
        let names: Vec<&str> = DropCause::ALL.iter().map(|c| c.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        assert_eq!(DropCause::NoTokens.name(), "no_tokens");
    }

    #[test]
    fn display_strings_match_legacy_enums() {
        // These strings are rendered by qdisc/np-sim call sites that
        // predate the unified enum.
        assert_eq!(DropCause::OverPkts.to_string(), "queue over packet limit");
        assert_eq!(DropCause::OverBytes.to_string(), "queue over byte limit");
        assert_eq!(DropCause::TailDrop.to_string(), "traffic-manager tail drop");
        assert_eq!(
            DropCause::CorruptDrop.to_string(),
            "traffic-manager corruption drop (injected fault)"
        );
    }

    #[test]
    fn cause_counters_register_lazily() {
        use sim_core::time::Nanos;

        let registry = Registry::new();
        let family = CauseCounters::new(&registry, "test.q");
        assert!(registry
            .snapshot(Nanos::ZERO)
            .get("test.q.drop.over_pkts")
            .is_none());
        family.incr(DropCause::OverPkts);
        family.incr(DropCause::OverPkts);
        let snap = registry.snapshot(Nanos::ZERO);
        assert_eq!(snap.counter("test.q.drop.over_pkts"), 2);
        assert!(snap.get("test.q.drop.over_bytes").is_none());
    }
}
