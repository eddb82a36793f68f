//! Decision provenance: what the admission walk actually did, per packet.
//!
//! flowvalve's admission function is generic over a [`StepObserver`]. The
//! production path instantiates it with [`NoObserver`], whose `ENABLED:
//! bool = false` constant lets the compiler erase every capture branch —
//! the unsampled fast path pays one well-predicted branch per decision,
//! nothing more. When the 1-in-2^n [`Sampler`] (the registry's one
//! per-packet decision, defined in `fv_telemetry::sampler` and shared with
//! spans and trace events) selects a packet, the pipeline re-runs nothing:
//! the same single walk executes with a [`Recorder`] threaded through it,
//! and the finished [`ProvenanceRecord`] — every executed chain step with
//! bucket tokens before/after, the deciding step on a refusal, whether the
//! flow cache classified the packet, and the reload generation and tree
//! epoch at decision time — lands in the [`ProvenanceRing`], the
//! workspace's one overwrite-oldest [`Ring`], which keeps the newest
//! records in the order they were made and never blocks the data path.

use fv_telemetry::{JsonValue, Ring, ToJson};
use sim_core::time::Nanos;

pub use fv_telemetry::Sampler;

/// What kind of chain step executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepKind {
    /// A guarded rate-estimation update of a path node.
    Update,
    /// The leaf class token-bucket meter.
    MeterLeaf,
    /// The ceiling-bucket meter bounding borrowing.
    MeterCeil,
    /// A lender shadow-bucket meter.
    Borrow,
}

impl StepKind {
    /// Stable lowercase name used in rendered walks and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            StepKind::Update => "update",
            StepKind::MeterLeaf => "meter_leaf",
            StepKind::MeterCeil => "meter_ceil",
            StepKind::Borrow => "borrow",
        }
    }
}

/// One executed admission-chain step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepRecord {
    /// What the step did.
    pub kind: StepKind,
    /// Raw class id of the node the step touched.
    pub class: u16,
    /// Slab index of the bucket the step touched.
    pub bucket: u32,
    /// Tokens requested by a meter step (0 for updates).
    pub need: i64,
    /// Raw bucket level immediately before the step.
    pub before: i64,
    /// Raw bucket level immediately after the step.
    pub after: i64,
    /// Whether the step passed (meters: token test green; updates: always).
    pub green: bool,
}

/// The verdict, mirrored here so the auditor does not depend on flowvalve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditVerdict {
    /// Admitted on the leaf's own tokens.
    Forward,
    /// Admitted by borrowing from the lender class (raw id).
    Borrowed(u16),
    /// Refused.
    Drop,
}

impl AuditVerdict {
    /// Stable lowercase name.
    pub fn name(&self) -> &'static str {
        match self {
            AuditVerdict::Forward => "forward",
            AuditVerdict::Borrowed(_) => "borrowed",
            AuditVerdict::Drop => "drop",
        }
    }
}

/// Why the admission walk refused a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropCause {
    /// The leaf class token bucket had too few tokens and no lender could
    /// cover the packet.
    NoTokens,
    /// The class ceiling bucket refused the packet — the HTB-style bound
    /// that caps borrowing.
    OverCeil,
}

impl DropCause {
    /// Stable snake_case name, as in `fv why --json`.
    pub fn name(&self) -> &'static str {
        match self {
            DropCause::NoTokens => "no_tokens",
            DropCause::OverCeil => "over_ceil",
        }
    }
}

impl core::fmt::Display for DropCause {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            DropCause::NoTokens => "class out of tokens",
            DropCause::OverCeil => "class over ceiling",
        })
    }
}

/// The full provenance of one sampled scheduling decision.
#[derive(Debug, Clone, PartialEq)]
pub struct ProvenanceRecord {
    /// Packet id the decision was made for.
    pub pkt_id: u64,
    /// Virtual time of the decision.
    pub at: Nanos,
    /// Raw leaf class id the packet classified into.
    pub leaf: u16,
    /// Wire bits charged for the packet.
    pub wire_bits: u64,
    /// The verdict.
    pub verdict: AuditVerdict,
    /// Whether the packet's classification hit the exact-match flow cache
    /// (a miss walked the filter table and filled the entry).
    pub cache_hit: bool,
    /// Pipeline hot-reload generation at decision time.
    pub reload_gen: u64,
    /// Tree update epoch at decision time.
    pub epoch: u64,
    /// Index of the compiled admission chain the walk ran.
    pub chain: u32,
    /// Every executed step, in execution order.
    pub steps: Vec<StepRecord>,
}

impl ProvenanceRecord {
    /// Index of the step that decided a refusal: the last non-green step.
    pub fn deciding_step(&self) -> Option<usize> {
        self.steps.iter().rposition(|s| !s.green)
    }

    /// Why the packet was refused, when it was: the deciding step names
    /// it. A red ceiling meter is [`DropCause::OverCeil`], any other
    /// red meter the leaf (and its lenders) out of tokens.
    pub fn cause(&self) -> Option<DropCause> {
        let kind = |i: usize| self.steps[i].kind;
        (self.verdict == AuditVerdict::Drop).then(|| match self.deciding_step().map(kind) {
            Some(StepKind::MeterCeil) => DropCause::OverCeil,
            _ => DropCause::NoTokens,
        })
    }

    /// The canonical walk text: everything the *scheduling semantics*
    /// produced — steps, verdict, cause — excluding the cache,
    /// reload and chain bookkeeping around it, which [`Self::render`]
    /// appends.
    pub fn canonical(&self) -> String {
        let mut out = String::new();
        use std::fmt::Write as _;
        let _ = writeln!(
            out,
            "pkt {} at {}ns leaf 1:{} bits {}",
            self.pkt_id,
            self.at.as_nanos(),
            self.leaf,
            self.wire_bits
        );
        for (i, s) in self.steps.iter().enumerate() {
            let _ = writeln!(
                out,
                "  [{i}] {} 1:{} bucket {} need {} tokens {} -> {} {}",
                s.kind.name(),
                s.class,
                s.bucket,
                s.need,
                s.before,
                s.after,
                if s.green { "green" } else { "red" }
            );
        }
        match self.verdict {
            AuditVerdict::Borrowed(l) => {
                let _ = writeln!(out, "verdict borrowed from 1:{l}");
            }
            v => {
                let _ = write!(out, "verdict {}", v.name());
                if let Some(c) = self.cause() {
                    let _ = write!(out, " ({c})");
                }
                let _ = writeln!(out);
            }
        }
        out
    }

    /// The full human-readable explanation printed by `fv why`.
    pub fn render(&self) -> String {
        let mut out = self.canonical();
        use std::fmt::Write as _;
        let _ = writeln!(
            out,
            "flow cache {} (reload {} epoch {}) chain {}",
            if self.cache_hit { "hit" } else { "miss" },
            self.reload_gen,
            self.epoch,
            self.chain
        );
        if let Some(i) = self.deciding_step() {
            let _ = writeln!(out, "deciding step [{i}]");
        }
        out
    }
}

impl ToJson for StepRecord {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("kind", JsonValue::Str(self.kind.name().to_string())),
            ("class", JsonValue::UInt(self.class as u64)),
            ("bucket", JsonValue::UInt(self.bucket as u64)),
            ("need", JsonValue::Int(self.need)),
            ("before", JsonValue::Int(self.before)),
            ("after", JsonValue::Int(self.after)),
            ("green", JsonValue::Bool(self.green)),
        ])
    }
}

impl ToJson for ProvenanceRecord {
    fn to_json(&self) -> JsonValue {
        let mut pairs = vec![
            ("pkt_id", JsonValue::UInt(self.pkt_id)),
            ("at_ns", JsonValue::UInt(self.at.as_nanos())),
            ("leaf", JsonValue::UInt(self.leaf as u64)),
            ("wire_bits", JsonValue::UInt(self.wire_bits)),
            ("verdict", JsonValue::Str(self.verdict.name().to_string())),
        ];
        if let AuditVerdict::Borrowed(l) = self.verdict {
            pairs.push(("lender", JsonValue::UInt(l as u64)));
        }
        pairs.push((
            "cause",
            match self.cause() {
                Some(c) => JsonValue::Str(c.name().to_string()),
                None => JsonValue::Null,
            },
        ));
        pairs.push(("cache_hit", JsonValue::Bool(self.cache_hit)));
        pairs.push(("reload_gen", JsonValue::UInt(self.reload_gen)));
        pairs.push(("epoch", JsonValue::UInt(self.epoch)));
        pairs.push(("chain", JsonValue::UInt(self.chain as u64)));
        pairs.push((
            "deciding_step",
            match self.deciding_step() {
                Some(i) => JsonValue::UInt(i as u64),
                None => JsonValue::Null,
            },
        ));
        pairs.push((
            "steps",
            JsonValue::arr(self.steps.iter().map(|s| s.to_json())),
        ));
        JsonValue::obj(pairs)
    }
}

/// The capture hook the admission function is generic over.
///
/// `ENABLED` is an associated *constant*: with [`NoObserver`] every
/// capture site folds to dead code at monomorphization, so the production
/// instantiation is bit-identical in cost to the pre-audit scheduler.
pub trait StepObserver {
    /// Whether this observer captures anything.
    const ENABLED: bool;

    /// Called after each executed chain step.
    fn on_step(&mut self, rec: StepRecord);
}

/// The erased observer for the production path.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoObserver;

impl StepObserver for NoObserver {
    const ENABLED: bool = false;

    #[inline(always)]
    fn on_step(&mut self, _rec: StepRecord) {}
}

/// The collecting observer used for sampled packets.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Steps collected so far.
    pub steps: Vec<StepRecord>,
}

impl Recorder {
    /// A fresh empty recorder.
    pub fn new() -> Self {
        Self::default()
    }
}

impl StepObserver for Recorder {
    const ENABLED: bool = true;

    #[inline]
    fn on_step(&mut self, rec: StepRecord) {
        self.steps.push(rec);
    }
}

/// The sampled decisions of a run: a [`Ring`] of [`ProvenanceRecord`]s in
/// the order `decide` wrote them, keeping the newest `capacity`. Writers
/// never block; a record whose slot another thread holds is dropped.
#[derive(Debug)]
pub struct ProvenanceRing(Ring<ProvenanceRecord>);

impl ProvenanceRing {
    /// A ring of `capacity` slots (rounded up to a power of two, minimum 8).
    pub fn new(capacity: usize) -> Self {
        ProvenanceRing(Ring::new(capacity))
    }

    /// Delegates to [`Self::new`]: the ring fills in arrival order at any
    /// sampling rate, so `_shift` is ignored. Kept because the
    /// `benchmark/` package calls it.
    pub fn sampled(capacity: usize, _shift: u32) -> Self {
        Self::new(capacity)
    }

    /// Stores `rec` over the oldest record.
    pub fn record(&self, rec: ProvenanceRecord) {
        self.0.push(rec);
    }

    /// The record for `pkt_id`, if it is still resident. The scan runs
    /// newest-first, so the record of the decision just made is the first
    /// one it looks at.
    pub fn get(&self, pkt_id: u64) -> Option<ProvenanceRecord> {
        self.0.newest(|r| r.pkt_id == pkt_id)
    }

    /// Every resident record, ordered by packet id.
    pub fn records(&self) -> Vec<ProvenanceRecord> {
        let mut out = self.0.recent(self.0.capacity());
        out.sort_by_key(|r| r.pkt_id);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(pkt_id: u64) -> ProvenanceRecord {
        ProvenanceRecord {
            pkt_id,
            at: Nanos::from_nanos(42),
            leaf: 10,
            wire_bits: 12_000,
            verdict: AuditVerdict::Forward,
            cache_hit: true,
            reload_gen: 1,
            epoch: 6,
            chain: 2,
            steps: vec![StepRecord {
                kind: StepKind::MeterLeaf,
                class: 10,
                bucket: 3,
                need: 12_000,
                before: 50_000,
                after: 38_000,
                green: true,
            }],
        }
    }

    #[test]
    fn sampler_is_one_in_pow2() {
        let s = Sampler::one_in_pow2(3);
        let hits = (0..64).filter(|&i| s.hit(i)).count();
        assert_eq!(hits, 8);
        assert!(s.hit(0));
        assert!(!s.hit(1));
        assert!(Sampler::one_in_pow2(0).hit(12345));
    }

    #[test]
    fn sampled_ring_keeps_every_id_its_sampler_hits() {
        // The shift is ignored: 16 sampled ids fill 16 slots in the order
        // they come, whatever their spacing.
        let s = Sampler::one_in_pow2(6);
        let ring = ProvenanceRing::sampled(16, s.shift());
        let hits: Vec<u64> = (0..16u64 << 6).filter(|&id| s.hit(id)).collect();
        assert_eq!(hits.len(), 16);
        for &id in &hits {
            ring.record(rec(id));
        }
        assert!(hits.iter().all(|&id| ring.get(id).is_some()));
        let held: Vec<u64> = ring.records().iter().map(|r| r.pkt_id).collect();
        assert_eq!(held, hits);
    }

    #[test]
    fn ring_stores_and_resolves_by_pkt_id() {
        let ring = ProvenanceRing::new(8);
        ring.record(rec(5));
        ring.record(rec(13)); // a slot follows arrival, not the id: both stay
        assert_eq!(ring.get(5).map(|r| r.pkt_id), Some(5));
        assert_eq!(ring.get(13).map(|r| r.pkt_id), Some(13));
        assert_eq!(ring.get(21), None);
        // Of two records for one id, the newer answers.
        ring.record(ProvenanceRecord { epoch: 7, ..rec(5) });
        assert_eq!(ring.get(5).map(|r| r.epoch), Some(7));
    }

    #[test]
    fn sampled_ring_fills_every_slot_before_evicting() {
        // Ids in any order and spacing fill the slots in arrival order, and
        // the next record evicts the oldest one, whatever its id.
        let ring = ProvenanceRing::new(8);
        let ids = [40u64, 3, 17, 1_000, 8, 9, 64, 2];
        for id in ids {
            ring.record(rec(id));
        }
        assert!(ids.iter().all(|&id| ring.get(id).is_some()));
        ring.record(rec(5));
        assert_eq!(ring.get(40), None);
        let held: Vec<u64> = ring.records().iter().map(|r| r.pkt_id).collect();
        assert_eq!(held, [2, 3, 5, 8, 9, 17, 64, 1_000]);
    }

    #[test]
    fn canonical_excludes_cache_state() {
        let a = rec(9);
        let mut b = rec(9);
        b.cache_hit = false;
        b.reload_gen = 99;
        b.chain = 5;
        assert_eq!(a.canonical(), b.canonical());
        assert_ne!(a.render(), b.render());
    }

    #[test]
    fn deciding_step_is_last_red() {
        let mut r = rec(1);
        r.steps.push(StepRecord {
            kind: StepKind::Borrow,
            class: 1,
            bucket: 1,
            need: 12_000,
            before: 100,
            after: 100,
            green: false,
        });
        assert_eq!(r.deciding_step(), Some(1));
        assert_eq!(rec(1).deciding_step(), None);
    }

    #[test]
    fn a_refusal_names_its_cause_in_text_and_json() {
        // A red step of each kind decides the refusal; the green leaf
        // meter before it does not.
        let no_tokens = (DropCause::NoTokens, "class out of tokens", "no_tokens");
        let over_ceil = (DropCause::OverCeil, "class over ceiling", "over_ceil");
        for (kind, (cause, text, name)) in [
            (StepKind::MeterLeaf, no_tokens),
            (StepKind::MeterCeil, over_ceil),
            (StepKind::Borrow, no_tokens),
        ] {
            let mut r = ProvenanceRecord {
                verdict: AuditVerdict::Drop,
                ..rec(4)
            };
            let step = r.steps[0];
            r.steps.push(StepRecord {
                kind,
                green: false,
                ..step
            });
            assert_eq!(r.cause(), Some(cause));
            assert!(r.canonical().ends_with(&format!("verdict drop ({text})\n")));
            let json = r.to_json();
            assert_eq!(json.get("cause").and_then(|v| v.as_str()), Some(name));
        }
        // Only a drop has a cause.
        for verdict in [AuditVerdict::Forward, AuditVerdict::Borrowed(20)] {
            let r = ProvenanceRecord { verdict, ..rec(4) };
            assert_eq!(r.cause(), None);
            assert_eq!(r.to_json().get("cause"), Some(&JsonValue::Null));
        }
    }

    #[test]
    fn json_shape_is_stable() {
        let j = rec(3).to_json();
        assert_eq!(j.get("pkt_id").and_then(|v| v.as_u64()), Some(3));
        assert_eq!(j.get("verdict").and_then(|v| v.as_str()), Some("forward"));
        assert_eq!(
            j.get("steps").and_then(|v| v.as_arr()).map(|a| a.len()),
            Some(1)
        );
    }
}
