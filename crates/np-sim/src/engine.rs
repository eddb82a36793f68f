//! Worker micro-engine pool.
//!
//! Each micro-engine is modeled as a run-to-completion server that retires
//! instruction cycles at the configured clock rate. The 4-8 hardware
//! threads per ME exist to hide memory-stall latency, so stall time shows
//! up as fixed pipeline latency, not throughput loss; aggregate NIC
//! throughput is `num_mes × freq / instruction_cycles_per_packet`, exactly
//! the regime the paper's Figure 13 measures.
//!
//! Dispatch policy: an arriving packet is pulled by the earliest-available
//! ME (the NFP's cluster load balancer); if even that ME could not start the
//! packet within `rx_max_wait`, the receive ring has overflowed and the
//! packet is dropped at ingress.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use sim_core::time::{CycleTime, Cycles, Freq, Nanos};

/// Outcome of trying to dispatch a packet to a worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch {
    /// A worker accepted the packet and will begin processing at `start`.
    Started {
        /// When the worker begins executing (≥ arrival time).
        start: Nanos,
    },
    /// All workers are backlogged past the receive-ring budget.
    RxOverflow,
}

/// A pool of worker micro-engines.
///
/// A worker's completion time is its start plus the packet's cycles at the
/// pool's clock, converted per packet through a [`CycleTime`]: exactly
/// [`Freq::duration_of`], without its `u128` division.
///
/// # Example
///
/// ```
/// use np_sim::engine::{Dispatch, WorkerPool};
/// use sim_core::time::{Cycles, Freq, Nanos};
///
/// let mut pool = WorkerPool::new(2, Freq::from_mhz(1000), Nanos::from_micros(1));
/// // Both workers idle: packets start immediately.
/// let d = pool.dispatch(Nanos::ZERO);
/// assert_eq!(d, Dispatch::Started { start: Nanos::ZERO });
/// pool.complete(Nanos::ZERO, Cycles::new(500)); // busy until 500 ns
/// ```
#[derive(Debug)]
pub struct WorkerPool {
    /// Min-heap of `(free time, engine index)` pairs.
    free_at: BinaryHeap<Reverse<(Nanos, usize)>>,
    freq: Freq,
    cycle_time: CycleTime,
    rx_max_wait: Nanos,
    /// Instruction cycles retired by each micro-engine individually.
    busy: Vec<Cycles>,
    /// Worker popped by `dispatch`, awaiting `complete`.
    pending: Option<(Nanos, usize)>,
}

impl WorkerPool {
    /// Creates a pool of `n` workers at clock `freq`, dropping packets that
    /// would wait longer than `rx_max_wait` for a worker.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize, freq: Freq, rx_max_wait: Nanos) -> Self {
        assert!(n > 0, "worker pool cannot be empty");
        WorkerPool {
            free_at: (0..n).map(|i| Reverse((Nanos::ZERO, i))).collect(),
            freq,
            cycle_time: CycleTime::new(freq),
            rx_max_wait,
            busy: vec![Cycles::ZERO; n],
            pending: None,
        }
    }

    /// Attempts to hand a packet arriving at `now` to the earliest-free
    /// worker. On success the caller *must* follow up with
    /// [`WorkerPool::complete`] to report the measured service cost.
    ///
    /// # Panics
    ///
    /// Panics if a previous dispatch was not completed.
    pub fn dispatch(&mut self, now: Nanos) -> Dispatch {
        assert!(self.pending.is_none(), "previous dispatch not completed");
        let Reverse((free, engine)) = *self.free_at.peek().expect("pool is non-empty");
        let start = free.max(now);
        if start - now > self.rx_max_wait {
            return Dispatch::RxOverflow;
        }
        self.free_at.pop();
        self.pending = Some((start, engine));
        Dispatch::Started { start }
    }

    /// [`WorkerPool::dispatch`] under an injected micro-engine stall:
    /// engines `0..k` (for `stall = Some((k, until))`) cannot *start* new
    /// work before `until`, modeling a cluster losing workers mid-run. The
    /// load balancer picks the earliest *effective* start among all
    /// engines, so packets flow to the surviving engines and the stalled
    /// ones rejoin once the window clears.
    pub fn dispatch_with(&mut self, now: Nanos, stall: Option<(usize, Nanos)>) -> Dispatch {
        let Some((k, until)) = stall.filter(|&(k, _)| k > 0) else {
            return self.dispatch(now);
        };
        assert!(self.pending.is_none(), "previous dispatch not completed");
        // The heap is ordered by raw free time, which a stall invalidates;
        // scan all engines for the earliest effective start. The pool is
        // tens of engines and this path only runs inside fault windows.
        let mut entries: Vec<(Nanos, usize)> = Vec::with_capacity(self.free_at.len());
        while let Some(Reverse(e)) = self.free_at.pop() {
            entries.push(e);
        }
        let effective = |&(free, engine): &(Nanos, usize)| {
            if engine < k {
                (free.max(until), engine)
            } else {
                (free, engine)
            }
        };
        let best = entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| effective(e))
            .map(|(i, _)| i)
            .expect("pool is non-empty");
        let (free, engine) = entries.swap_remove(best);
        for e in entries {
            self.free_at.push(Reverse(e));
        }
        let start = effective(&(free, engine)).0.max(now);
        if start - now > self.rx_max_wait {
            self.free_at.push(Reverse((free, engine)));
            return Dispatch::RxOverflow;
        }
        self.pending = Some((start, engine));
        Dispatch::Started { start }
    }

    /// Completes the pending dispatch: the worker that started at `start`
    /// consumed `cost` instruction cycles. Returns the completion time.
    ///
    /// # Panics
    ///
    /// Panics if there is no pending dispatch or `start` does not match it.
    pub fn complete(&mut self, start: Nanos, cost: Cycles) -> Nanos {
        let (pending, engine) = self.pending.take().expect("no pending dispatch");
        assert_eq!(pending, start, "completion does not match dispatch");
        let done = start + self.cycle_time.duration_of(cost);
        self.busy[engine] += cost;
        self.free_at.push(Reverse((done, engine)));
        done
    }

    /// The micro-engine index of the in-flight dispatch, if any — the
    /// worker axis for cycle attribution.
    pub fn pending_engine(&self) -> Option<usize> {
        self.pending.map(|(_, engine)| engine)
    }

    /// Total instruction cycles executed by all workers.
    pub fn busy_cycles(&self) -> Cycles {
        self.busy.iter().fold(Cycles::ZERO, |acc, &c| acc + c)
    }

    /// Aggregate worker utilization over `[0, horizon]`.
    pub fn utilization(&self, horizon: Nanos) -> f64 {
        if horizon == Nanos::ZERO {
            return 0.0;
        }
        let capacity = self.busy.len() as f64 * self.freq.cycles_in(horizon).get() as f64;
        (self.busy_cycles().get() as f64 / capacity).min(1.0)
    }

    /// Per-micro-engine utilization over `[0, horizon]`, indexed by engine.
    pub fn engine_utilization(&self, horizon: Nanos) -> Vec<f64> {
        if horizon == Nanos::ZERO {
            return vec![0.0; self.busy.len()];
        }
        let capacity = self.freq.cycles_in(horizon).get() as f64;
        self.busy
            .iter()
            .map(|b| (b.get() as f64 / capacity).min(1.0))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(n: usize) -> WorkerPool {
        WorkerPool::new(n, Freq::from_mhz(1000), Nanos::from_micros(1))
    }

    #[test]
    fn idle_pool_starts_immediately() {
        let mut p = pool(4);
        match p.dispatch(Nanos::from_nanos(7)) {
            Dispatch::Started { start } => assert_eq!(start, Nanos::from_nanos(7)),
            other => panic!("unexpected {other:?}"),
        }
        p.complete(Nanos::from_nanos(7), Cycles::new(100));
    }

    #[test]
    fn busy_pool_queues_until_budget() {
        let mut p = pool(1);
        // One packet occupies the single worker for 1000 cycles = 1 us.
        let Dispatch::Started { start } = p.dispatch(Nanos::ZERO) else {
            panic!()
        };
        let done = p.complete(start, Cycles::new(1_000));
        assert_eq!(done, Nanos::from_micros(1));
        // A packet arriving at t=0 would wait exactly 1 us = rx_max_wait: allowed.
        let Dispatch::Started { start } = p.dispatch(Nanos::ZERO) else {
            panic!()
        };
        assert_eq!(start, Nanos::from_micros(1));
        let done2 = p.complete(start, Cycles::new(2_000));
        // A packet at t=0 now needs to wait 3 us > 1 us budget: dropped.
        assert_eq!(p.dispatch(Nanos::ZERO), Dispatch::RxOverflow);
        // But at t = done2 the worker is free again.
        let Dispatch::Started { start } = p.dispatch(done2) else {
            panic!()
        };
        assert_eq!(start, done2);
        p.complete(start, Cycles::ZERO);
    }

    #[test]
    fn workers_load_balance() {
        let mut p = pool(2);
        let Dispatch::Started { start: s1 } = p.dispatch(Nanos::ZERO) else {
            panic!()
        };
        p.complete(s1, Cycles::new(10_000));
        // Second packet goes to the other (idle) worker.
        let Dispatch::Started { start: s2 } = p.dispatch(Nanos::from_nanos(1)) else {
            panic!()
        };
        assert_eq!(s2, Nanos::from_nanos(1));
        p.complete(s2, Cycles::new(10));
    }

    #[test]
    fn throughput_matches_aggregate_cycle_rate() {
        // 2 workers x 1 GHz, 1000 cycles/pkt => 2 Mpps. Offer 4 Mpps for 1 ms.
        let mut p = WorkerPool::new(2, Freq::from_mhz(1000), Nanos::from_micros(5));
        let mut accepted = 0u64;
        let horizon = Nanos::from_millis(1);
        let mut t = Nanos::ZERO;
        while t < horizon {
            if let Dispatch::Started { start } = p.dispatch(t) {
                p.complete(start, Cycles::new(1_000));
                accepted += 1;
            }
            t += Nanos::from_nanos(250); // 4 Mpps offered
        }
        let achieved_mpps = accepted as f64 / horizon.as_secs_f64() / 1e6;
        assert!(
            (achieved_mpps - 2.0).abs() < 0.1,
            "got {achieved_mpps} Mpps"
        );
        assert!(p.utilization(horizon) > 0.95);
    }

    #[test]
    fn stalled_engines_are_skipped_until_window_clears() {
        let mut p = pool(2);
        let until = Nanos::from_nanos(600);
        // Engine 0 stalled: work lands on engine 1.
        let Dispatch::Started { start } = p.dispatch_with(Nanos::ZERO, Some((1, until))) else {
            panic!()
        };
        assert_eq!(start, Nanos::ZERO);
        let (_, engine) = p.pending.unwrap();
        assert_eq!(engine, 1);
        p.complete(start, Cycles::new(100));
        // Engine 1 busy until 100 ns, engine 0 stalled until 600 ns: the
        // balancer prefers the sooner of the two effective starts.
        let Dispatch::Started { start } = p.dispatch_with(Nanos::from_nanos(50), Some((1, until)))
        else {
            panic!()
        };
        assert_eq!(start, Nanos::from_nanos(100));
        p.complete(start, Cycles::new(100));
        // With every engine stalled past the rx budget, dispatch overflows.
        let mut p1 = pool(1);
        let d = p1.dispatch_with(Nanos::ZERO, Some((1, Nanos::from_millis(1))));
        assert_eq!(d, Dispatch::RxOverflow);
        // And a no-stall call is the plain dispatch fast path.
        let Dispatch::Started { start } = p1.dispatch_with(Nanos::ZERO, None) else {
            panic!()
        };
        assert_eq!(start, Nanos::ZERO);
        p1.complete(start, Cycles::ZERO);
    }

    #[test]
    fn completions_are_duration_of_at_the_models_clocks() {
        for freq in [
            Freq::from_mhz(800),
            Freq::from_ghz(1.2),
            Freq::from_mhz(1000),
        ] {
            // Packet costs, and counts past 2^64 / 10^9 whose product
            // takes the u128 fallback.
            let costs = [0, 1, 2, 3, 119, 120, 121, 180, 700, 1_000_003];
            let wide = [u64::MAX / 1_000_000_000 + 1, u64::MAX / 2, u64::MAX];
            for cost in costs.into_iter().chain(wide).map(Cycles::new) {
                let mut p = WorkerPool::new(1, freq, Nanos::ZERO);
                assert_eq!(
                    p.dispatch(Nanos::ZERO),
                    Dispatch::Started { start: Nanos::ZERO }
                );
                let done = p.complete(Nanos::ZERO, cost);
                assert_eq!(done, freq.duration_of(cost), "{cost} at {freq}");
            }
        }
    }

    #[test]
    #[should_panic]
    fn double_dispatch_without_complete_panics() {
        let mut p = pool(2);
        let _ = p.dispatch(Nanos::ZERO);
        let _ = p.dispatch(Nanos::ZERO);
    }

    #[test]
    fn utilization_zero_horizon() {
        let p = pool(1);
        assert_eq!(p.utilization(Nanos::ZERO), 0.0);
        assert_eq!(p.engine_utilization(Nanos::ZERO), vec![0.0]);
    }

    #[test]
    fn per_engine_busy_is_tracked() {
        let mut p = pool(2);
        for i in 0..4u64 {
            let Dispatch::Started { start } = p.dispatch(Nanos::from_nanos(i)) else {
                panic!()
            };
            p.complete(start, Cycles::new(100));
        }
        assert_eq!(p.busy_cycles(), Cycles::new(400));
        // The load balancer alternates between the two idle engines.
        let u = p.engine_utilization(Nanos::from_micros(1));
        assert_eq!(u.len(), 2);
        assert!(u.iter().all(|&x| x > 0.0 && x <= 1.0), "{u:?}");
    }
}
