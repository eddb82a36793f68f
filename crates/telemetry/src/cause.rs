//! The unified drop-cause taxonomy.
//!
//! Every layer that can refuse a packet — the FlowValve admission chains,
//! the software qdisc baselines, and the np-sim traffic manager — used to
//! carry its own two-variant enum (`QueueDrop`, `TmDrop`) or an untyped
//! counter. [`DropCause`] folds them into one taxonomy so provenance
//! records, ledgers and counters can speak a single language; the old
//! names survive as type aliases at their original paths.

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable_and_distinct() {
        let names: Vec<&str> = [
            DropCause::NoTokens,
            DropCause::OverCeil,
            DropCause::OverPkts,
            DropCause::OverBytes,
            DropCause::TailDrop,
            DropCause::CorruptDrop,
        ]
        .iter()
        .map(|c| c.name())
        .collect();
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
}
