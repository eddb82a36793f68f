//! Lock contention attribution: per-lock hold/wait profiles.
//!
//! The simulator's [`LockTable`](np_sim::lock::LockTable) already models
//! virtual-time contention per lock; this module turns its per-lock rows
//! into a ranked profile — which class locks actually serialize the
//! scheduling function (paper Figure 7's per-class vs global-lock ablation,
//! now answerable per lock instead of in aggregate).

use np_sim::lock::{LockId, PerLockStats};

/// One ranked lock: its id and attribution row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockRank {
    /// The lock, indexable back into the scheduling tree's class order.
    pub id: LockId,
    /// Hold/wait attribution for the lock.
    pub stats: PerLockStats,
}

impl LockRank {
    /// Fraction of acquisition attempts that contended or failed, in
    /// permille (0 when the lock was never touched).
    pub fn contention_permille(&self) -> u64 {
        let attempts = self.stats.acquires + self.stats.try_failed;
        if attempts == 0 {
            return 0;
        }
        (self.stats.contended + self.stats.try_failed) * 1000 / attempts
    }
}

/// Ranks every touched lock by total wait (then hold, then id): the
/// top-contended list `fv profile` and `fv top` print.
pub fn rank_locks(per_lock: &[PerLockStats]) -> Vec<LockRank> {
    let mut out: Vec<LockRank> = per_lock
        .iter()
        .enumerate()
        .filter(|(_, s)| s.acquires + s.try_failed > 0)
        .map(|(i, s)| LockRank {
            id: LockId(i as u32),
            stats: *s,
        })
        .collect();
    out.sort_by(|a, b| {
        b.stats
            .wait_total
            .cmp(&a.stats.wait_total)
            .then(b.stats.hold_total.cmp(&a.stats.hold_total))
            .then(a.id.0.cmp(&b.id.0))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::time::Nanos;

    fn row(acquires: u64, try_failed: u64, contended: u64, wait: u64, hold: u64) -> PerLockStats {
        PerLockStats {
            acquires,
            try_failed,
            contended,
            wait_total: Nanos::from_nanos(wait),
            hold_total: Nanos::from_nanos(hold),
        }
    }

    #[test]
    fn ranks_by_wait_then_hold_and_skips_untouched() {
        let rows = vec![
            row(10, 0, 1, 50, 500),
            row(0, 0, 0, 0, 0), // never touched: dropped
            row(5, 2, 3, 900, 200),
            row(8, 0, 0, 50, 900), // ties lock 0 on wait, wins on hold
        ];
        let ranked = rank_locks(&rows);
        assert_eq!(
            ranked.iter().map(|r| r.id).collect::<Vec<_>>(),
            vec![LockId(2), LockId(3), LockId(0)]
        );
    }

    #[test]
    fn contention_permille() {
        let r = LockRank {
            id: LockId(0),
            stats: row(6, 2, 2, 100, 100),
        };
        // (2 contended + 2 failed) / 8 attempts = 500‰.
        assert_eq!(r.contention_permille(), 500);
        let idle = LockRank {
            id: LockId(1),
            stats: PerLockStats::default(),
        };
        assert_eq!(idle.contention_permille(), 0);
    }
}
