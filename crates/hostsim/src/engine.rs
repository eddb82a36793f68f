//! The closed-loop host simulation engine.
//!
//! Drives the scenario's TCP connections (ACK-clocked, AIMD) through an
//! egress path, feeding losses and deliveries back into the senders. This
//! is the loop behind every throughput-over-time figure: schedulers shape
//! bandwidth by *dropping*, TCP converges onto what is left, and the
//! recorder accumulates the delivered bits into the figure's time series.

use std::sync::Arc;

use netstack::flow::FlowKey;
use netstack::packet::{AppId, Packet, PacketIdGen, VfPort};
use netstack::tcp::TcpConn;
use sim_core::event::EventQueue;
use sim_core::rng::SimRng;
use sim_core::series::SeriesRecorder;
use sim_core::stats::Histogram;
use sim_core::time::Nanos;
use sim_core::units::WireFraming;

use crate::path::{EgressPath, Outcome};
use crate::scenario::{AppSpec, Scenario};

/// Internal simulation events.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// A connection may try to send.
    ConnWake(usize),
    /// An ACK arrived for `(conn, seq)`.
    Ack(usize, u64),
    /// Loss of `(conn, seq)` was detected.
    Loss(usize, u64),
    /// Poll the egress path's scheduler.
    Poll,
    /// A connection's RTO timer, at most one pending per connection. A
    /// window is stuck (e.g. starved inside a qdisc) when nothing moved
    /// `progress` for one RTO after a send; of the sends made at one
    /// `progress` value only the first can find that, so the timer guards
    /// that one. A send arms it when none is pending; firing, it times the
    /// window out, moves to the deadline of the send it now guards, or goes
    /// idle. A timer that moved fires *after* its nanosecond's other events;
    /// an event per segment, scheduled at its send, would fire before some.
    Watchdog(usize),
}

struct ConnState<'a> {
    app: &'a AppSpec,
    /// The recorder series of the app's name.
    series: usize,
    tcp: TcpConn,
    flow: FlowKey,
    /// Bumped on every ACK, loss and timeout.
    progress: u64,
    /// `progress` at the send the RTO timer guards, the first made at that
    /// value; stale once `progress` moves on.
    rto_progress: u64,
    /// That send's instant plus the RTO; `Some` while a timer is pending.
    rto_deadline: Option<Nanos>,
}

/// Results of one scenario run.
#[derive(Debug)]
pub struct RunReport {
    /// Per-app delivered-bit time series.
    pub recorder: SeriesRecorder,
    /// One-way delay of delivered packets (all apps).
    pub delay: Histogram,
    /// Packets delivered to the receiver.
    pub delivered: u64,
    /// Packets dropped anywhere on the path.
    pub dropped: u64,
    /// Retransmission timeouts: windows with no progress for one RTO.
    pub timeouts: u64,
    /// The egress path's display name.
    pub path_name: &'static str,
    /// The simulated horizon.
    pub horizon: Nanos,
}

impl RunReport {
    /// Mean delivered rate of one app over the figure-axis window
    /// `[from_s, to_s)`, in Gbps.
    pub fn mean_gbps(&self, scenario: &Scenario, app: &str, from_s: f64, to_s: f64) -> f64 {
        // One figure-second per bin.
        let series = self.recorder.binned(app, scenario.time_scale);
        series.map_or(0.0, |s| {
            s.mean_rate(from_s as usize, to_s as usize).as_gbps()
        })
    }
}

/// Host-side chaos hook (fv-chaos): perturbs the sending host rather than
/// the NIC. Both methods default to "no fault" and must be deterministic
/// functions of their arguments.
pub trait HostChaosHook: std::fmt::Debug + Send + Sync {
    /// When `app`'s process is frozen at `now`, returns the instant the
    /// pause clears (the sender retries then). `None` = running normally.
    fn app_paused_until(&self, _app: AppId, _now: Nanos) -> Option<Nanos> {
        None
    }

    /// Whether `vf` is down (mid-reset) at `now`. Packets DMA'd into a
    /// downed VF are lost at the host boundary and surface as losses.
    fn vf_down(&self, _vf: VfPort, _now: Nanos) -> bool {
        false
    }
}

/// Runs `scenario` over `path`; returns the report and the path (whose
/// internal statistics the caller may inspect).
pub fn run(scenario: &Scenario, path: EgressPath) -> (RunReport, EgressPath) {
    run_with_chaos(scenario, path, None)
}

/// Everything a send attempt or a packet's fate touches.
struct Engine<'a> {
    scenario: &'a Scenario,
    chaos: Option<Arc<dyn HostChaosHook>>,
    path: EgressPath,
    events: EventQueue<Ev>,
    conns: Vec<ConnState<'a>>,
    /// Index in `conns` of each app's first connection, by app position.
    conn_base: Vec<usize>,
    ids: PacketIdGen,
    /// Host-side DMA pacing: when each VF is free, how long a frame takes.
    vf_free: [Nanos; 256],
    frame_time: Nanos,
    poll_armed: bool,
    recorder: SeriesRecorder,
    delay: Histogram,
    dropped: u64,
    timeouts: u64,
}

impl Engine<'_> {
    /// One send attempt for connection `ci` at time `now`.
    fn try_send(&mut self, ci: usize, now: Nanos) {
        let s = self.scenario;
        let app = self.conns[ci].app;
        let chaos = self.chaos.as_deref();
        let paused = chaos.and_then(|h| h.app_paused_until(app.app, now));
        if !(app.active_at(now) && self.conns[ci].tcp.can_send()) {
            return;
        }
        if let Some(until) = paused {
            // Frozen process: nothing leaves until the pause clears.
            let retry = until.max(now + Nanos::from_nanos(1));
            return self.events.schedule(retry, Ev::ConnWake(ci));
        }
        let seq = self.conns[ci].tcp.on_send();
        let slot = &mut self.vf_free[app.vf.0 as usize];
        let t_send = (*slot).max(now);
        let next = t_send + self.frame_time;
        *slot = next;
        let (id, flow) = (self.ids.next_id(), self.conns[ci].flow);
        let pkt = Packet::new(id, flow, s.frame_len, app.app, app.vf, t_send).with_seq(seq);
        if chaos.is_some_and(|h| h.vf_down(app.vf, t_send)) {
            // DMA into a VF under reset: lost at the host boundary; the
            // sender learns of it like any other loss.
            self.settle(ci, Outcome::Dropped { pkt, at: t_send });
        } else {
            let (outcome, arm) = self.path.send(pkt, t_send);
            if let Some(out) = outcome {
                self.settle(ci, out);
            }
            if arm && !self.poll_armed {
                self.poll_armed = true;
                self.events.schedule(t_send, Ev::Poll);
            }
        }
        // Pace the next segment of this window and arm the RTO.
        let conn = &mut self.conns[ci];
        if conn.tcp.can_send() {
            self.events.schedule(next, Ev::ConnWake(ci));
        }
        if conn.rto_progress != conn.progress {
            conn.rto_progress = conn.progress;
            // Generous RTO: late enough that ordinary queueing never fires
            // it, early enough to unstick starved flows within a figure bin.
            let due = t_send + s.base_rtt * 16 + Nanos::from_millis(2);
            if conn.rto_deadline.replace(due).is_none() {
                self.events.schedule(due, Ev::Watchdog(ci));
            }
        }
    }

    /// Books a packet's fate and schedules the feedback its sender sees.
    fn settle(&mut self, ci: usize, out: Outcome) {
        match out {
            Outcome::Delivered { pkt, at } => {
                let series = self.conns[ci].series;
                self.recorder.record(series, at, pkt.frame_bits());
                let delay = at.saturating_sub(pkt.created_at);
                self.delay.record(delay.as_nanos());
                let ack_at = at + self.scenario.base_rtt / 2;
                self.events.schedule(ack_at, Ev::Ack(ci, pkt.seq));
            }
            Outcome::Dropped { pkt, at } => {
                self.dropped += 1;
                let loss_at = at + self.scenario.base_rtt;
                self.events.schedule(loss_at, Ev::Loss(ci, pkt.seq));
            }
        }
    }

    /// The sender heard about a segment or timed out: that is progress.
    fn progress(&mut self, ci: usize, now: Nanos, react: impl FnOnce(&mut TcpConn)) {
        react(&mut self.conns[ci].tcp);
        self.conns[ci].progress += 1;
        self.try_send(ci, now);
    }
}

/// [`run`] with an optional host-side chaos hook consulted on every send
/// attempt (app pauses) and every DMA handoff (VF resets). With `None`
/// the loop is byte-identical to the clean run.
pub fn run_with_chaos(
    scenario: &Scenario,
    path: EgressPath,
    chaos: Option<Arc<dyn HostChaosHook>>,
) -> (RunReport, EgressPath) {
    let mut rng = SimRng::seed(scenario.seed);
    // A thousand slots per figure-second, or as many as divide it evenly.
    let scale = scenario.time_scale.as_nanos();
    let slots = (1..=1_000).rev().find(|&n| scale.is_multiple_of(n));
    // 2x the link so the host never binds.
    let host_rate = scenario.link.saturating_add(scenario.link);
    let mut e = Engine {
        scenario,
        chaos,
        path,
        // Pending: a segment's ACK or loss, a connection's wake and timer.
        events: EventQueue::with_capacity(1 << 10),
        conns: Vec::new(),
        conn_base: Vec::new(),
        ids: PacketIdGen::new(),
        vf_free: [Nanos::ZERO; 256],
        frame_time: WireFraming::ETHERNET.serialization_time(host_rate, scenario.frame_len as u64),
        poll_armed: false,
        recorder: SeriesRecorder::new(Nanos::from_nanos(scale / slots.unwrap_or(1))),
        delay: Histogram::new_latency_ns(),
        dropped: 0,
        timeouts: 0,
    };
    for (ai, app) in scenario.apps.iter().enumerate() {
        e.conn_base.push(e.conns.len());
        let series = e.recorder.series(&app.name);
        for c in 0..app.conns {
            let jitter = Nanos::from_nanos(rng.range(0, scenario.base_rtt.as_nanos().max(2)));
            let wake = Ev::ConnWake(e.conns.len());
            e.events.schedule(app.start + jitter, wake);
            let src = ([10, 0, (ai + 1) as u8, 1], 40_000 + c as u16);
            e.conns.push(ConnState {
                app,
                series,
                tcp: TcpConn::new(scenario.mss, scenario.init_cwnd),
                flow: FlowKey::tcp(src.0, src.1, [10, 0, 255, 1], app.dst_port),
                progress: 0,
                rto_progress: u64::MAX,
                rto_deadline: None,
            });
        }
    }
    while let Some((now, ev)) = e.events.pop().filter(|ev| ev.0 <= scenario.horizon) {
        match ev {
            Ev::ConnWake(ci) => e.try_send(ci, now),
            Ev::Ack(ci, seq) => e.progress(ci, now, |tcp| tcp.on_ack(seq)),
            Ev::Loss(ci, seq) => e.progress(ci, now, |tcp| tcp.on_loss(seq)),
            Ev::Watchdog(ci) => {
                let conn = &mut e.conns[ci];
                let due = conn.rto_deadline.take().expect("a pending timer");
                // Else progress since that send and nothing sent after: idle.
                let guarding = conn.rto_progress == conn.progress;
                if guarding && now < due {
                    conn.rto_deadline = Some(due);
                    e.events.schedule(due, Ev::Watchdog(ci));
                } else if guarding {
                    e.timeouts += 1;
                    e.progress(ci, now, TcpConn::on_timeout);
                }
            }
            Ev::Poll => {
                let (outcome, next) = e.path.poll(now);
                if let Some(out) = outcome {
                    // Its flow key is 10.0.<app position + 1>.1:<40000 + conn>.
                    let flow = out.packet().flow;
                    let app = flow.src_ip.octets()[2] as usize - 1;
                    let ci = e.conn_base[app] + (flow.src_port - 40_000) as usize;
                    e.settle(ci, out);
                }
                e.poll_armed = next.is_some();
                if let Some(t) = next.map(|t| t.max(now + Nanos::from_nanos(1))) {
                    e.events.schedule(t, Ev::Poll);
                }
            }
        }
    }
    let report = RunReport {
        delivered: e.delay.count(),
        recorder: e.recorder,
        delay: e.delay,
        dropped: e.dropped,
        timeouts: e.timeouts,
        path_name: e.path.name(),
        horizon: scenario.horizon,
    };
    (report, e.path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::AppSpec;
    use flowvalve::frontend::Policy;
    use flowvalve::pipeline::FlowValvePipeline;
    use flowvalve::tree::TreeParams;
    use np_sim::config::NicConfig;
    use np_sim::nic::{PassthroughDecider, SmartNic};
    use sim_core::units::BitRate;

    fn one_app_scenario(conns: usize) -> Scenario {
        let mut s = Scenario::new(BitRate::from_gbps(10.0), Nanos::from_millis(50));
        s.apps = vec![AppSpec::new(
            "App0",
            0,
            0,
            9000,
            conns,
            Nanos::ZERO,
            Nanos::from_millis(50),
        )];
        s
    }

    #[test]
    fn single_tcp_flow_fills_a_passthrough_10g_nic() {
        let s = one_app_scenario(4);
        let nic = SmartNic::new(NicConfig::agilio_cx_10g(), Box::new(PassthroughDecider));
        let (report, _path) = run(&s, EgressPath::flowvalve(nic));
        assert!(report.delivered > 0);
        // Steady-state (after 10 ms of slow start) should approach 10 Gbps.
        let series = report
            .recorder
            .binned("App0", Nanos::from_millis(5))
            .unwrap();
        let late = series.mean_rate(2, series.rates.len()).as_gbps();
        assert!(late > 8.0, "late-window rate {late} Gbps");
    }

    #[test]
    fn flowvalve_policy_throttles_the_flow() {
        // Policy: everything into a 2 Gbps leaf.
        let s = one_app_scenario(4);
        let policy = Policy::parse(
            "fv qdisc add dev nic0 root handle 1: fv default 1:10\n\
             fv class add dev nic0 parent root classid 1:1 rate 10gbit\n\
             fv class add dev nic0 parent 1:1 classid 1:10 ceil 2gbit\n",
        )
        .unwrap();
        let cfg = NicConfig::agilio_cx_10g();
        let pipe = FlowValvePipeline::compile(&policy, TreeParams::default(), &cfg).unwrap();
        let nic = SmartNic::new(cfg, Box::new(pipe));
        let (report, _path) = run(&s, EgressPath::flowvalve(nic));
        let series = report
            .recorder
            .binned("App0", Nanos::from_millis(5))
            .unwrap();
        let late = series.mean_rate(4, series.rates.len()).as_gbps();
        assert!((1.2..2.6).contains(&late), "throttled rate {late} Gbps");
        assert!(report.dropped > 0, "rate control works by dropping");
    }

    #[test]
    fn apps_stop_sending_at_their_stop_time() {
        let mut s = one_app_scenario(2);
        s.apps[0].stop = Nanos::from_millis(10);
        let nic = SmartNic::new(NicConfig::agilio_cx_10g(), Box::new(PassthroughDecider));
        let (report, _path) = run(&s, EgressPath::flowvalve(nic));
        let series = report
            .recorder
            .binned("App0", Nanos::from_millis(5))
            .unwrap();
        // Bins after 15 ms are empty (allowing in-flight stragglers in 10-15).
        for (i, r) in series.rates.iter().enumerate().skip(3) {
            assert_eq!(r.as_bps(), 0, "bin {i} not empty");
        }
    }

    #[test]
    fn software_paths_book_deliveries_by_app_position_not_id() {
        use qdisc::htb::{Handle, Htb, HtbClassSpec, KernelModel};
        // Ids neither dense nor in order: the class map is keyed by them,
        // the series and the connections by the app's position.
        let mut s = Scenario::new(BitRate::from_gbps(10.0), Nanos::from_millis(10));
        s.time_scale = s.horizon;
        s.apps = vec![
            AppSpec::new("Seven", 7, 0, 9000, 2, Nanos::ZERO, s.horizon),
            AppSpec::new("Three", 3, 1, 9001, 2, Nanos::ZERO, s.horizon),
        ];
        let link = s.link;
        let specs = vec![
            HtbClassSpec::new(Handle(1), None, link),
            HtbClassSpec::new(Handle(10), Some(Handle(1)), link.scaled(3, 4)),
            HtbClassSpec::new(Handle(20), Some(Handle(1)), link.scaled(1, 4)),
        ];
        let htb = Htb::new(specs, KernelModel::ideal()).unwrap();
        let map = [(AppId(7), Handle(10)), (AppId(3), Handle(20))].into();
        let (report, _path) = run(&s, EgressPath::kernel(htb, map, link));
        let seven = report.mean_gbps(&s, "Seven", 0.0, 1.0);
        let three = report.mean_gbps(&s, "Three", 0.0, 1.0);
        assert!(seven > 2.0 * three && three > 2.0, "{seven} vs {three}");
        // Every delivery is booked once. 10 ms bins: a rate is the bin's
        // bits x 100, exactly; stragglers land in a second bin.
        let bps: u64 = report
            .recorder
            .binned_all(s.horizon)
            .iter()
            .flat_map(|series| series.rates.iter().map(|rate| rate.as_bps()))
            .sum();
        assert_eq!(bps, report.delivered * 1518 * 8 * 100);
    }

    #[test]
    fn report_snapshot_covers_nic_and_scheduler() {
        let s = one_app_scenario(4);
        let policy = Policy::parse(
            "fv qdisc add dev nic0 root handle 1: fv default 1:10\n\
             fv class add dev nic0 parent root classid 1:1 rate 10gbit\n\
             fv class add dev nic0 parent 1:1 classid 1:10 ceil 2gbit\n",
        )
        .unwrap();
        let cfg = NicConfig::agilio_cx_10g();
        let mut pipe = FlowValvePipeline::compile(&policy, TreeParams::default(), &cfg).unwrap();
        // Observed because this caller asked: it holds the registry.
        let registry = fv_telemetry::Registry::new();
        pipe.attach_telemetry(&registry);
        let nic = SmartNic::with_registry(cfg, Box::new(pipe), &registry);
        let (report, _path) = run(&s, EgressPath::flowvalve(nic));
        let snap = registry.snapshot(s.horizon);
        // NIC-level counters agree with the report's own accounting.
        assert_eq!(snap.counter("nic.tx_packets"), report.delivered);
        assert!(snap.counter("nic.sched_drops") > 0);
        // Per-class scheduler verdicts reached the same registry.
        assert!(snap.counter("fv.class.1:10.forwarded") > 0);
        assert!(snap.counter("fv.class.1:10.dropped") > 0);
        // The latency histogram saw every transmitted packet.
        let h = snap.histogram("nic.latency_ns").unwrap();
        assert_eq!(h.count, report.delivered);
        assert!(h.p99 >= h.p50 && h.p50 > 0);
    }

    #[test]
    fn host_pause_silences_the_window_and_recovers() {
        /// App 0 frozen inside `[20ms, 30ms)`.
        #[derive(Debug)]
        struct Pause;
        impl HostChaosHook for Pause {
            fn app_paused_until(&self, app: AppId, now: Nanos) -> Option<Nanos> {
                let (from, to) = (Nanos::from_millis(20), Nanos::from_millis(30));
                (app.0 == 0 && now >= from && now < to).then_some(to)
            }
        }
        let s = one_app_scenario(4);
        let nic = SmartNic::new(NicConfig::agilio_cx_10g(), Box::new(PassthroughDecider));
        let (report, _path) = run_with_chaos(&s, EgressPath::flowvalve(nic), Some(Arc::new(Pause)));
        let series = report
            .recorder
            .binned("App0", Nanos::from_millis(5))
            .unwrap();
        // The paused window (bins 4-5) delivers almost nothing; afterwards
        // the connections resume and climb back toward line rate.
        let during = series.rates[4].as_gbps() + series.rates[5].as_gbps();
        assert!(during < 1.0, "rate during pause {during} Gbps");
        let after = series.mean_rate(7, series.rates.len()).as_gbps();
        assert!(after > 5.0, "post-pause rate {after} Gbps");
    }

    #[test]
    fn vf_reset_drops_at_the_host_boundary() {
        /// VF 0 down for the whole run: every send is lost on the host.
        #[derive(Debug)]
        struct Down;
        impl HostChaosHook for Down {
            fn vf_down(&self, vf: VfPort, _now: Nanos) -> bool {
                vf.0 == 0
            }
        }
        let mut s = one_app_scenario(1);
        s.horizon = Nanos::from_millis(5);
        let nic = SmartNic::new(NicConfig::agilio_cx_10g(), Box::new(PassthroughDecider));
        let (report, path) = run_with_chaos(&s, EgressPath::flowvalve(nic), Some(Arc::new(Down)));
        assert_eq!(report.delivered, 0);
        assert!(report.dropped > 0);
        // The NIC never saw a packet — the loss happened on the host side.
        let EgressPath::FlowValve { nic } = path else {
            panic!()
        };
        assert_eq!(nic.stats().offered, 0);
    }

    #[test]
    fn chaos_none_matches_plain_run() {
        let s = one_app_scenario(2);
        let go = |chaos: Option<Arc<dyn HostChaosHook>>| {
            let nic = SmartNic::new(NicConfig::agilio_cx_10g(), Box::new(PassthroughDecider));
            let (r, _) = run_with_chaos(&s, EgressPath::flowvalve(nic), chaos);
            (r.delivered, r.dropped)
        };
        assert_eq!(go(None), go(None));
        let (plain, _) = {
            let nic = SmartNic::new(NicConfig::agilio_cx_10g(), Box::new(PassthroughDecider));
            run(&s, EgressPath::flowvalve(nic))
        };
        assert_eq!(go(None), (plain.delivered, plain.dropped));
    }

    #[test]
    fn run_is_deterministic() {
        let s = one_app_scenario(2);
        let go = || {
            let nic = SmartNic::new(NicConfig::agilio_cx_10g(), Box::new(PassthroughDecider));
            let (r, _) = run(&s, EgressPath::flowvalve(nic));
            (r.delivered, r.dropped)
        };
        assert_eq!(go(), go());
    }
}
