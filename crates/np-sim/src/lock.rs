//! Virtual-time lock contention model.
//!
//! The scheduling tree's per-class update sections are guarded by locks
//! (paper §IV-C, Figure 7). Under the discrete-event simulation the real
//! `parking_lot` locks in `flowvalve` never contend (events are processed
//! one at a time), so contention must be *modeled*: each simulated lock
//! tracks when it becomes free, `try_acquire` fails while it is held, and a
//! blocking `acquire` returns the delay a core would have spent spinning.
//!
//! This is the mechanism behind the Figure 7 ablation: a global-lock
//! scheduler serializes every packet through one `LockId`, while FlowValve's
//! per-class locks only collide on genuinely concurrent updates of the same
//! class.

use std::sync::Arc;

use fv_telemetry::metrics::{Counter, Histogram};
use fv_telemetry::trace::{EventRing, TraceKind};
use fv_telemetry::Registry;
use sim_core::time::Nanos;

use crate::fault::FaultInjector;

/// Identifies one simulated lock (e.g. one scheduling-tree class).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LockId(pub u32);

/// Statistics about lock behaviour, for the ablation benches: a snapshot
/// view [`LockTable::stats`] materializes from the table's four tallies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockStats {
    /// Successful `try_acquire` calls.
    pub try_acquired: u64,
    /// Failed `try_acquire` calls (lock was held).
    pub try_failed: u64,
    /// Blocking acquires that had to wait.
    pub contended: u64,
    /// Total simulated time spent waiting in blocking acquires.
    pub wait_total: Nanos,
}

/// Per-lock attribution row: everything the contention profiler needs to
/// rank locks by wait and hold pressure (`fv profile` / `fv top`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerLockStats {
    /// Successful acquisitions (try or blocking).
    pub acquires: u64,
    /// Failed `try_acquire` calls (lock was held).
    pub try_failed: u64,
    /// Blocking acquires that had to wait.
    pub contended: u64,
    /// Total simulated time spent waiting in blocking acquires.
    pub wait_total: Nanos,
    /// Total simulated time the lock was held (critical-section time).
    pub hold_total: Nanos,
}

/// What only an observed table records: a wait-time histogram and
/// `LockWait` trace events.
#[derive(Debug)]
struct LockTelemetry {
    wait_hist: Arc<Histogram>,
    ring: Arc<EventRing>,
}

/// A table of simulated locks.
///
/// # Example
///
/// ```
/// use np_sim::lock::{LockId, LockTable};
/// use sim_core::time::Nanos;
///
/// let mut locks = LockTable::new(4);
/// let hold = Nanos::from_nanos(100);
/// assert!(locks.try_acquire(LockId(0), Nanos::ZERO, hold));
/// // Still held at t=50: a second core fails its try-lock and skips the
/// // update, exactly as Algorithm 1 prescribes.
/// assert!(!locks.try_acquire(LockId(0), Nanos::from_nanos(50), hold));
/// // Free again at t=100.
/// assert!(locks.try_acquire(LockId(0), Nanos::from_nanos(100), hold));
/// ```
#[derive(Debug)]
pub struct LockTable {
    free_at: Vec<Nanos>,
    /// The four [`LockStats`] tallies, the single count of each event:
    /// free-standing until [`LockTable::attach_telemetry`] swaps in the
    /// registry's `lock.*` cells. Written only from `&mut self`.
    try_acquired: Arc<Counter>,
    try_failed: Arc<Counter>,
    contended: Arc<Counter>,
    wait_ns: Arc<Counter>,
    per_lock: Vec<PerLockStats>,
    telemetry: Option<LockTelemetry>,
    injector: Option<Arc<dyn FaultInjector>>,
}

impl LockTable {
    /// Creates a table of `n` locks, all initially free.
    pub fn new(n: usize) -> Self {
        LockTable {
            free_at: vec![Nanos::ZERO; n],
            try_acquired: Arc::default(),
            try_failed: Arc::default(),
            contended: Arc::default(),
            wait_ns: Arc::default(),
            per_lock: vec![PerLockStats::default(); n],
            telemetry: None,
            injector: None,
        }
    }

    /// Installs a fault injector whose [`FaultInjector::lock_hold_permille`]
    /// scales every subsequent hold time (lock-latency inflation).
    pub fn set_fault_injector(&mut self, injector: Arc<dyn FaultInjector>) {
        self.injector = Some(injector);
    }

    /// The hold time after any injected lock-latency inflation.
    fn effective_hold(&self, now: Nanos, hold: Nanos) -> Nanos {
        match &self.injector {
            Some(inj) => {
                let permille = inj.lock_hold_permille(now);
                if permille == 1000 {
                    hold
                } else {
                    Nanos::from_nanos(hold.as_nanos().saturating_mul(permille) / 1000)
                }
            }
            None => hold,
        }
    }

    /// Moves the table's tallies into `registry` as `lock.try_acquired`,
    /// `lock.try_failed`, `lock.contended` and `lock.wait_ns`, carrying
    /// over what they have counted so far, and starts recording what only
    /// an observed table keeps: a wait-time histogram and `LockWait` trace
    /// events for contended acquires.
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        for (cell, name) in [
            (&mut self.try_acquired, "lock.try_acquired"),
            (&mut self.try_failed, "lock.try_failed"),
            (&mut self.contended, "lock.contended"),
            (&mut self.wait_ns, "lock.wait_ns"),
        ] {
            crate::register_cell(registry, name, cell);
        }
        self.telemetry = Some(LockTelemetry {
            wait_hist: registry.histogram("lock.wait_hist_ns"),
            ring: registry.ring(),
        });
    }

    /// Grows the table to hold at least `n` locks.
    pub fn ensure(&mut self, n: usize) {
        if self.free_at.len() < n {
            self.free_at.resize(n, Nanos::ZERO);
            self.per_lock.resize(n, PerLockStats::default());
        }
    }

    /// Attempts to acquire `lock` at time `now`, holding it for `hold` on
    /// success. Returns whether the acquisition succeeded.
    ///
    /// # Panics
    ///
    /// Panics if `lock` is out of range.
    pub fn try_acquire(&mut self, lock: LockId, now: Nanos, hold: Nanos) -> bool {
        let hold = self.effective_hold(now, hold);
        let per = &mut self.per_lock[lock.0 as usize];
        let f = &mut self.free_at[lock.0 as usize];
        if *f <= now {
            *f = now + hold;
            self.try_acquired.add_single_writer(1);
            per.acquires += 1;
            per.hold_total += hold;
            true
        } else {
            self.try_failed.add_single_writer(1);
            per.try_failed += 1;
            false
        }
    }

    /// Blocking acquire: waits until the lock frees, holds it for `hold`,
    /// and returns the instant the critical section *begins* (≥ `now`).
    ///
    /// # Panics
    ///
    /// Panics if `lock` is out of range.
    pub fn acquire(&mut self, lock: LockId, now: Nanos, hold: Nanos) -> Nanos {
        let hold = self.effective_hold(now, hold);
        let per = &mut self.per_lock[lock.0 as usize];
        let f = &mut self.free_at[lock.0 as usize];
        let start = (*f).max(now);
        let wait = start - now;
        if start > now {
            self.contended.add_single_writer(1);
            self.wait_ns.add_single_writer(wait.as_nanos());
            per.contended += 1;
            per.wait_total += wait;
        }
        *f = start + hold;
        self.try_acquired.add_single_writer(1);
        per.acquires += 1;
        per.hold_total += hold;
        if let Some(t) = &self.telemetry {
            t.wait_hist.record(wait.as_nanos());
            if start > now {
                t.ring
                    .record(now, TraceKind::LockWait, lock.0 as u64, wait.as_nanos());
            }
        }
        start
    }

    /// Accumulated contention statistics, materialized from the tallies.
    pub fn stats(&self) -> LockStats {
        LockStats {
            try_acquired: self.try_acquired.total(),
            try_failed: self.try_failed.total(),
            contended: self.contended.total(),
            wait_total: Nanos::from_nanos(self.wait_ns.total()),
        }
    }

    /// Per-lock attribution rows, indexed by [`LockId`].
    pub fn per_lock_stats(&self) -> &[PerLockStats] {
        &self.per_lock
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOLD: Nanos = Nanos::from_nanos(100);

    #[test]
    fn try_acquire_fails_while_held() {
        let mut t = LockTable::new(1);
        assert!(t.try_acquire(LockId(0), Nanos::ZERO, HOLD));
        assert!(!t.try_acquire(LockId(0), Nanos::from_nanos(99), HOLD));
        assert!(t.try_acquire(LockId(0), Nanos::from_nanos(100), HOLD));
        assert_eq!(t.stats().try_acquired, 2);
        assert_eq!(t.stats().try_failed, 1);
    }

    #[test]
    fn blocking_acquire_serializes() {
        let mut t = LockTable::new(1);
        // Three cores arrive simultaneously: they serialize back-to-back.
        let s1 = t.acquire(LockId(0), Nanos::ZERO, HOLD);
        let s2 = t.acquire(LockId(0), Nanos::ZERO, HOLD);
        let s3 = t.acquire(LockId(0), Nanos::ZERO, HOLD);
        assert_eq!(s1, Nanos::ZERO);
        assert_eq!(s2, Nanos::from_nanos(100));
        assert_eq!(s3, Nanos::from_nanos(200));
        assert_eq!(t.stats().contended, 2);
        assert_eq!(t.stats().wait_total, Nanos::from_nanos(300));
    }

    #[test]
    fn independent_locks_do_not_interfere() {
        let mut t = LockTable::new(2);
        assert!(t.try_acquire(LockId(0), Nanos::ZERO, HOLD));
        assert!(t.try_acquire(LockId(1), Nanos::ZERO, HOLD));
    }

    #[test]
    fn acquire_after_free_is_uncontended() {
        let mut t = LockTable::new(1);
        t.acquire(LockId(0), Nanos::ZERO, HOLD);
        let s = t.acquire(LockId(0), Nanos::from_nanos(500), HOLD);
        assert_eq!(s, Nanos::from_nanos(500));
        assert_eq!(t.stats().contended, 0);
    }

    #[test]
    fn ensure_grows() {
        let mut t = LockTable::new(1);
        t.ensure(10);
        assert_eq!(t.free_at.len(), 10);
        assert!(t.try_acquire(LockId(9), Nanos::ZERO, HOLD));
        t.ensure(5); // never shrinks
        assert_eq!(t.free_at.len(), 10);
    }

    #[test]
    fn telemetry_mirrors_stats() {
        let reg = Registry::new();
        let mut t = LockTable::new(2);
        t.attach_telemetry(&reg);
        assert!(t.try_acquire(LockId(0), Nanos::ZERO, HOLD));
        assert!(!t.try_acquire(LockId(0), Nanos::from_nanos(10), HOLD));
        // Held until t=100: a blocking acquire at t=20 waits 80 ns.
        let start = t.acquire(LockId(0), Nanos::from_nanos(20), HOLD);
        assert_eq!(start, Nanos::from_nanos(100));
        let snap = reg.snapshot(Nanos::from_nanos(500));
        assert_eq!(snap.counter("lock.try_acquired"), 2);
        assert_eq!(snap.counter("lock.try_failed"), 1);
        assert_eq!(snap.counter("lock.contended"), 1);
        assert_eq!(snap.counter("lock.wait_ns"), 80);
        let hist = snap.histogram("lock.wait_hist_ns").expect("wait histogram");
        assert_eq!(hist.count, 1);
        assert!(snap
            .events
            .iter()
            .any(|e| e.kind == TraceKind::LockWait && e.a == 0 && e.b == 80));
        // The plain-struct view reads the registry's cells.
        assert_eq!(t.stats().wait_total, Nanos::from_nanos(80));
    }

    #[test]
    fn attaching_after_traffic_carries_the_totals_into_the_registry() {
        let mut t = LockTable::new(1);
        assert!(t.try_acquire(LockId(0), Nanos::ZERO, HOLD));
        assert!(!t.try_acquire(LockId(0), Nanos::from_nanos(10), HOLD));
        t.acquire(LockId(0), Nanos::from_nanos(20), HOLD); // waits 80 ns
        let reg = Registry::new();
        t.attach_telemetry(&reg);
        t.attach_telemetry(&reg); // the same registry again: nothing counts twice
        assert!(t.try_acquire(LockId(0), Nanos::from_micros(1), HOLD));
        let snap = reg.snapshot(Nanos::ZERO);
        let registered = LockStats {
            try_acquired: snap.counter("lock.try_acquired"),
            try_failed: snap.counter("lock.try_failed"),
            contended: snap.counter("lock.contended"),
            wait_total: Nanos::from_nanos(snap.counter("lock.wait_ns")),
        };
        // Two acquisitions, the failed try and the wait predate the registry.
        let all = LockStats {
            try_acquired: 3,
            try_failed: 1,
            contended: 1,
            wait_total: Nanos::from_nanos(80),
        };
        assert_eq!((registered, t.stats()), (all, all));
    }

    #[test]
    fn per_lock_rows_attribute_waits_and_holds() {
        let mut t = LockTable::new(2);
        // Lock 0: one clean try, one failed try, one contended acquire.
        assert!(t.try_acquire(LockId(0), Nanos::ZERO, HOLD));
        assert!(!t.try_acquire(LockId(0), Nanos::from_nanos(10), HOLD));
        let start = t.acquire(LockId(0), Nanos::from_nanos(20), HOLD);
        assert_eq!(start, Nanos::from_nanos(100));
        // Lock 1: one uncontended acquire.
        t.acquire(LockId(1), Nanos::ZERO, HOLD);

        let rows = t.per_lock_stats();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].acquires, 2);
        assert_eq!(rows[0].try_failed, 1);
        assert_eq!(rows[0].contended, 1);
        assert_eq!(rows[0].wait_total, Nanos::from_nanos(80));
        assert_eq!(rows[0].hold_total, Nanos::from_nanos(200));
        assert_eq!(rows[1].acquires, 1);
        assert_eq!(rows[1].contended, 0);
        assert_eq!(rows[1].hold_total, HOLD);

        // Aggregate view stays consistent with the per-lock rows.
        assert_eq!(
            t.stats().wait_total,
            rows.iter().map(|r| r.wait_total).sum()
        );

        t.ensure(4);
        assert_eq!(t.per_lock_stats().len(), 4);
        assert_eq!(t.per_lock_stats()[3], PerLockStats::default());
    }

    #[test]
    fn injected_hold_inflation_extends_critical_sections() {
        #[derive(Debug)]
        struct Slow;
        impl crate::fault::FaultInjector for Slow {
            fn lock_hold_permille(&self, now: Nanos) -> u64 {
                if now < Nanos::from_nanos(500) {
                    8_000
                } else {
                    1000
                }
            }
        }
        let mut t = LockTable::new(1);
        t.set_fault_injector(Arc::new(Slow));
        // 100 ns hold inflated 8x: still held at t=700.
        assert!(t.try_acquire(LockId(0), Nanos::ZERO, HOLD));
        assert!(!t.try_acquire(LockId(0), Nanos::from_nanos(700), HOLD));
        assert!(t.try_acquire(LockId(0), Nanos::from_nanos(800), HOLD));
        // Past the window the hold is nominal again.
        assert!(t.try_acquire(LockId(0), Nanos::from_nanos(900), HOLD));
    }
}
