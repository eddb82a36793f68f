//! fv-audit — decision provenance and token-conservation auditing.
//!
//! Since the scheduler moved to a compiled decision program fronted by a
//! per-flow cache, nothing upstream could say *why* a given packet was
//! admitted, deferred, or dropped, or prove that token charges still
//! conserve across hot reloads, epoch rolls and borrow flips. This crate
//! supplies that layer in two parts:
//!
//! * [`provenance`] — the [`StepObserver`] hook the scheduler threads
//!   through its admission walk, the [`ProvenanceRecord`] it produces
//!   (every executed chain step with bucket tokens before/after, and the
//!   [`DropCause`] of a refusal) and the
//!   [`ProvenanceRing`] that keeps the newest of them, the workspace's one
//!   overwrite-oldest ring (`fv_telemetry::Ring`). Which packets are
//!   captured is the registry's one per-packet decision, the 1-in-2^n
//!   [`Sampler`] of `fv_telemetry`, re-exported here.
//! * [`ledger`] — the token-conservation auditor: folds sampled records
//!   plus a bucket-slab snapshot into a per-bucket ledger (charged,
//!   restored and residual tokens, borrowing attributed lender→borrower)
//!   and flags violations as the `audit.*` counter family.
//!
//! The crate deliberately depends only on `sim-core` and `fv-telemetry`
//! so that flowvalve can thread the observer hook through its admission
//! walk without a dependency cycle.

pub mod ledger;
pub mod provenance;

pub use ledger::{AuditReport, BucketLedger, BucketSnapshot, Ledger, Violation, ViolationKind};
pub use provenance::{
    AuditVerdict, DropCause, NoObserver, ProvenanceRecord, ProvenanceRing, Recorder, Sampler,
    StepKind, StepObserver, StepRecord,
};
