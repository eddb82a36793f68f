//! The [`ChaosController`]: one object that answers every hook point.
//!
//! A single `Arc<ChaosController>` is installed into the NIC model (as an
//! [`np_sim::FaultInjector`]), the FlowValve pipeline (as a
//! [`flowvalve::pipeline::SchedChaosHook`]) and the host engine (as a
//! [`hostsim::HostChaosHook`]). Each hook answers from the fault plan and
//! the *current virtual time* only, so a faulted run is a pure function of
//! `(plan, seed)` — replayable byte-for-byte.
//!
//! The controller also owns the subsystem's observability: it counts
//! injections/recoveries into `chaos.*` metrics and stamps
//! [`TraceKind::FaultInject`]/[`TraceKind::FaultClear`] events into the
//! telemetry ring whenever a fault window opens or closes (detected by
//! [`ChaosController::note_transitions`], which the harness calls as the
//! clock advances).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use flowvalve::pipeline::SchedChaosHook;
use fv_telemetry::{Counter, EventRing, Registry, TraceKind};
use hostsim::HostChaosHook;
use netstack::packet::{AppId, VfPort};
use np_sim::{FaultInjector, TmFault};
use sim_core::time::Nanos;

use crate::plan::{FaultKind, FaultPlan, MAX_FAULTS};

/// Shared fault source for every layer of the stack.
#[derive(Debug)]
pub struct ChaosController {
    plan: FaultPlan,
    /// Frames offered to the TM while a `tm_drop` window is active.
    tm_offered: AtomicU64,
    /// Bitmask of fault indices active at the last `note_transitions`.
    active_mask: AtomicU64,
    faults_injected: Arc<Counter>,
    faults_cleared: Arc<Counter>,
    ring: Arc<EventRing>,
}

impl ChaosController {
    /// Builds a controller for `plan`, wiring `chaos.faults_injected` /
    /// `chaos.faults_cleared` counters and fault trace events into
    /// `registry`.
    ///
    /// # Panics
    ///
    /// Panics if the plan holds more than [`MAX_FAULTS`] faults (the
    /// parser enforces the same cap).
    pub fn new(plan: FaultPlan, registry: &Registry) -> ChaosController {
        assert!(
            plan.faults.len() <= MAX_FAULTS,
            "fault plan exceeds {MAX_FAULTS} faults"
        );
        ChaosController {
            plan,
            tm_offered: AtomicU64::new(0),
            active_mask: AtomicU64::new(0),
            faults_injected: registry.counter("chaos.faults_injected"),
            faults_cleared: registry.counter("chaos.faults_cleared"),
            ring: registry.ring(),
        }
    }

    /// Records window transitions up to `now`: each fault that became
    /// active since the last call emits a [`TraceKind::FaultInject`] event
    /// (`a` = kind code, `b` = fault index) and bumps
    /// `chaos.faults_injected`; each that ended emits
    /// [`TraceKind::FaultClear`] and bumps `chaos.faults_cleared`.
    ///
    /// Idempotent for a given `now`; the harness calls it on every packet
    /// arrival and once more at the horizon.
    pub fn note_transitions(&self, now: Nanos) {
        let mut mask: u64 = 0;
        for (i, f) in self.plan.faults.iter().enumerate() {
            if f.active_at(now) {
                mask |= 1 << i;
            }
        }
        let prev = self.active_mask.swap(mask, Ordering::Relaxed);
        if prev == mask {
            return;
        }
        for (i, f) in self.plan.faults.iter().enumerate() {
            let bit = 1u64 << i;
            if mask & bit != 0 && prev & bit == 0 {
                self.faults_injected.incr();
                self.ring
                    .record(now, TraceKind::FaultInject, f.kind.code(), i as u64);
            } else if mask & bit == 0 && prev & bit != 0 {
                self.faults_cleared.incr();
                self.ring
                    .record(now, TraceKind::FaultClear, f.kind.code(), i as u64);
            }
        }
    }

    fn active(&self, now: Nanos) -> impl Iterator<Item = &crate::plan::FaultSpec> {
        self.plan.faults.iter().filter(move |f| f.active_at(now))
    }
}

impl FaultInjector for ChaosController {
    /// Deepest degradation wins when wire-flap windows overlap.
    fn wire_rate_permille(&self, now: Nanos) -> u64 {
        self.active(now)
            .filter_map(|f| match f.kind {
                FaultKind::WireFlap { permille } => Some(permille),
                _ => None,
            })
            .min()
            .unwrap_or(1000)
    }

    /// Widest stall wins; the stall lasts until the last such window ends.
    fn stalled_engines(&self, now: Nanos) -> Option<(usize, Nanos)> {
        let mut engines = 0usize;
        let mut until = Nanos::ZERO;
        for f in self.active(now) {
            if let FaultKind::MeStall { engines: k } = f.kind {
                engines = engines.max(k);
                until = until.max(f.end());
            }
        }
        (engines > 0).then_some((engines, until))
    }

    fn extra_cycles(&self, now: Nanos) -> u64 {
        self.active(now)
            .filter_map(|f| match f.kind {
                FaultKind::CpuBurn { cycles } => Some(cycles),
                _ => None,
            })
            .sum()
    }

    fn tm_fault(&self, now: Nanos, _pkt_id: u64) -> TmFault {
        let mut pause_until = None::<Nanos>;
        let mut drop_every = None::<u64>;
        for f in self.active(now) {
            match f.kind {
                FaultKind::TmPause => {
                    pause_until = Some(pause_until.map_or(f.end(), |u| u.max(f.end())));
                }
                FaultKind::TmDrop { every } => {
                    drop_every = Some(drop_every.map_or(every, |e| e.min(every)));
                }
                _ => {}
            }
        }
        if let Some(until) = pause_until {
            return TmFault::Paused { until };
        }
        if let Some(every) = drop_every {
            // Counting only frames offered during a window keeps replay
            // exact: the n-th in-window frame drops, whichever packet
            // that happens to be.
            let seq = self.tm_offered.fetch_add(1, Ordering::Relaxed);
            if seq.is_multiple_of(every) {
                return TmFault::CorruptDrop;
            }
        }
        TmFault::None
    }

    fn lock_hold_permille(&self, now: Nanos) -> u64 {
        self.active(now)
            .filter_map(|f| match f.kind {
                FaultKind::LockSlow { permille } => Some(permille),
                _ => None,
            })
            .max()
            .unwrap_or(1000)
    }
}

impl SchedChaosHook for ChaosController {
    /// Largest active skew wins.
    fn sched_clock_skew(&self, now: Nanos) -> Nanos {
        self.active(now)
            .filter_map(|f| match f.kind {
                FaultKind::ClockSkew { skew } => Some(skew),
                _ => None,
            })
            .max()
            .unwrap_or(Nanos::ZERO)
    }
}

impl HostChaosHook for ChaosController {
    fn app_paused_until(&self, app: AppId, now: Nanos) -> Option<Nanos> {
        self.active(now)
            .filter_map(|f| match f.kind {
                FaultKind::HostPause { app: a } if AppId(a) == app => Some(f.end()),
                _ => None,
            })
            .max()
    }

    fn vf_down(&self, vf: VfPort, now: Nanos) -> bool {
        self.active(now).any(|f| match f.kind {
            FaultKind::VfReset { vf: v } => VfPort(v) == vf,
            _ => false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultSpec;

    fn us(n: u64) -> Nanos {
        Nanos::from_micros(n)
    }

    fn plan_of(faults: Vec<FaultSpec>) -> FaultPlan {
        FaultPlan { seed: 1, faults }
    }

    #[test]
    fn overlapping_windows_compose() {
        let plan = plan_of(vec![
            FaultSpec {
                kind: FaultKind::WireFlap { permille: 500 },
                at: us(0),
                dur: us(100),
            },
            FaultSpec {
                kind: FaultKind::WireFlap { permille: 250 },
                at: us(50),
                dur: us(100),
            },
            FaultSpec {
                kind: FaultKind::LockSlow { permille: 2000 },
                at: us(0),
                dur: us(10),
            },
            FaultSpec {
                kind: FaultKind::CpuBurn { cycles: 100 },
                at: us(0),
                dur: us(10),
            },
            FaultSpec {
                kind: FaultKind::CpuBurn { cycles: 50 },
                at: us(0),
                dur: us(10),
            },
        ]);
        let reg = Registry::new();
        let c = ChaosController::new(plan, &reg);
        assert_eq!(c.wire_rate_permille(us(10)), 500);
        assert_eq!(c.wire_rate_permille(us(60)), 250, "deepest flap wins");
        assert_eq!(c.wire_rate_permille(us(120)), 250);
        assert_eq!(c.wire_rate_permille(us(200)), 1000, "windows cleared");
        assert_eq!(c.lock_hold_permille(us(5)), 2000);
        assert_eq!(c.lock_hold_permille(us(50)), 1000);
        assert_eq!(c.extra_cycles(us(5)), 150, "cpu burns sum");
    }

    #[test]
    fn tm_pause_outranks_drop_and_drop_counts_in_window_frames() {
        let plan = plan_of(vec![
            FaultSpec {
                kind: FaultKind::TmDrop { every: 2 },
                at: us(0),
                dur: us(100),
            },
            FaultSpec {
                kind: FaultKind::TmPause,
                at: us(40),
                dur: us(20),
            },
        ]);
        let reg = Registry::new();
        let c = ChaosController::new(plan, &reg);
        assert_eq!(c.tm_fault(us(1), 1), TmFault::CorruptDrop, "frame 0 drops");
        assert_eq!(c.tm_fault(us(2), 2), TmFault::None, "frame 1 passes");
        assert_eq!(
            c.tm_fault(us(45), 3),
            TmFault::Paused { until: us(60) },
            "pause wins over drop"
        );
        assert_eq!(c.tm_fault(us(70), 4), TmFault::CorruptDrop);
        assert_eq!(c.tm_fault(us(200), 5), TmFault::None, "after the window");
    }

    #[test]
    fn host_hooks_match_app_and_vf() {
        let plan = plan_of(vec![
            FaultSpec {
                kind: FaultKind::HostPause { app: 2 },
                at: us(10),
                dur: us(20),
            },
            FaultSpec {
                kind: FaultKind::VfReset { vf: 1 },
                at: us(10),
                dur: us(20),
            },
        ]);
        let reg = Registry::new();
        let c = ChaosController::new(plan, &reg);
        assert_eq!(c.app_paused_until(AppId(2), us(15)), Some(us(30)));
        assert_eq!(c.app_paused_until(AppId(0), us(15)), None);
        assert_eq!(c.app_paused_until(AppId(2), us(35)), None);
        assert!(c.vf_down(VfPort(1), us(15)));
        assert!(!c.vf_down(VfPort(0), us(15)));
        assert!(!c.vf_down(VfPort(1), us(35)));
    }

    #[test]
    fn transitions_emit_events_and_counters_once() {
        let plan = plan_of(vec![
            FaultSpec {
                kind: FaultKind::TmPause,
                at: us(10),
                dur: us(10),
            },
            FaultSpec {
                kind: FaultKind::MeStall { engines: 4 },
                at: us(15),
                dur: us(10),
            },
        ]);
        let reg = Registry::new();
        let c = ChaosController::new(plan, &reg);
        for t in [0, 5, 12, 12, 16, 22, 22, 30] {
            c.note_transitions(us(t));
        }
        let snap = reg.snapshot(us(30));
        assert_eq!(snap.counter("chaos.faults_injected"), 2);
        assert_eq!(snap.counter("chaos.faults_cleared"), 2);
        let events = reg.ring().recent(16);
        let injects: Vec<_> = events
            .iter()
            .filter(|e| e.kind == TraceKind::FaultInject)
            .collect();
        let clears: Vec<_> = events
            .iter()
            .filter(|e| e.kind == TraceKind::FaultClear)
            .collect();
        assert_eq!(injects.len(), 2);
        assert_eq!(clears.len(), 2);
        assert_eq!(injects[0].a, FaultKind::TmPause.code());
        assert_eq!(injects[0].b, 0, "b carries the fault index");
    }

    #[test]
    fn stall_reports_widest_window_and_latest_return() {
        let plan = plan_of(vec![
            FaultSpec {
                kind: FaultKind::MeStall { engines: 4 },
                at: us(0),
                dur: us(50),
            },
            FaultSpec {
                kind: FaultKind::MeStall { engines: 8 },
                at: us(10),
                dur: us(10),
            },
        ]);
        let reg = Registry::new();
        let c = ChaosController::new(plan, &reg);
        assert_eq!(c.stalled_engines(us(5)), Some((4, us(50))));
        assert_eq!(c.stalled_engines(us(15)), Some((8, us(50))));
        assert_eq!(c.stalled_engines(us(60)), None);
    }
}
