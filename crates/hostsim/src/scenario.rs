//! Experiment scenarios: applications, staging, and link parameters.
//!
//! The paper's throughput-over-time figures stage applications on and off
//! (Figure 3 / Figure 11). A [`Scenario`] describes that staging plus the
//! transport parameters; `hostsim` replays it against any egress path.
//!
//! Timeline compression: the paper's figures span 45-60 wall seconds, which
//! at 40 Gbps would mean hundreds of millions of simulated packets. TCP
//! converges within a few hundred RTTs (tens of milliseconds here), so the
//! scenarios compress each "figure second" to [`Scenario::time_scale`]
//! simulated time; EXPERIMENTS.md reports both axes.

use flowvalve::tree::TreeParams;
use netstack::packet::{AppId, VfPort};
use sim_core::time::Nanos;
use sim_core::units::BitRate;

/// Scheduling-tree parameters for the closed-loop TCP figures.
///
/// The figures compress time 40x ([`Scenario::time_scale`]: a figure
/// second is 25 ms), so a TCP sawtooth that spans seconds on the testbed
/// spans tens of milliseconds here. A 2 ms burst window lets the token
/// buckets absorb its bursts (the hardware prototype's buckets do the same
/// relative to real sawtooths) while staying an order of magnitude below
/// the 25 ms figure-second bins.
pub fn experiment_tree_params() -> TreeParams {
    TreeParams {
        burst_window: Nanos::from_millis(2),
        shadow_burst_window: Nanos::from_millis(1),
        ..TreeParams::default()
    }
}

/// One application (tenant process) in a scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppSpec {
    /// Display name (series name in the output).
    pub name: String,
    /// Application id (accounting).
    pub app: AppId,
    /// The SR-IOV virtual function its traffic enters through.
    pub vf: VfPort,
    /// Destination port its flows use (classification key).
    pub dst_port: u16,
    /// Number of parallel TCP connections.
    pub conns: usize,
    /// When the app starts sending.
    pub start: Nanos,
    /// When the app stops sending.
    pub stop: Nanos,
}

impl AppSpec {
    /// Creates an app active over `[start, stop)`.
    pub fn new(
        name: impl Into<String>,
        app: u16,
        vf: u8,
        dst_port: u16,
        conns: usize,
        start: Nanos,
        stop: Nanos,
    ) -> Self {
        AppSpec {
            name: name.into(),
            app: AppId(app),
            vf: VfPort(vf),
            dst_port,
            conns,
            start,
            stop,
        }
    }

    /// Whether the app is active at `t`.
    pub fn active_at(&self, t: Nanos) -> bool {
        t >= self.start && t < self.stop
    }
}

/// A complete experiment scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The applications and their staging.
    pub apps: Vec<AppSpec>,
    /// Total simulated duration.
    pub horizon: Nanos,
    /// Egress link rate (the physical wire all paths drain into).
    pub link: BitRate,
    /// The bandwidth the *policy* divides (≤ `link`; the paper's
    /// motivation example enforces a 10 Gbps policy on a 40 Gbps wire,
    /// which is how a broken shaper can overrun its ceiling).
    pub policy_rate: BitRate,
    /// Simulated time representing one "figure second" on the paper's
    /// time axis.
    pub time_scale: Nanos,
    /// TCP maximum segment size in bytes.
    pub mss: u32,
    /// Layer-2 frame length corresponding to one MSS segment.
    pub frame_len: u32,
    /// Base (unloaded) round-trip time between sender and receiver.
    pub base_rtt: Nanos,
    /// Initial congestion window in segments.
    pub init_cwnd: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Scenario {
    /// Default transport parameters on a given link.
    pub fn new(link: BitRate, horizon: Nanos) -> Self {
        Scenario {
            apps: Vec::new(),
            horizon,
            link,
            policy_rate: link,
            time_scale: Nanos::from_millis(25),
            mss: 1_448,
            frame_len: 1_518,
            base_rtt: Nanos::from_micros(200),
            init_cwnd: 10,
            seed: 42,
        }
    }

    /// Converts a figure-axis second to simulated time.
    pub fn fig_secs(&self, s: f64) -> Nanos {
        Nanos::from_nanos((self.time_scale.as_nanos() as f64 * s).round() as u64)
    }

    /// The paper's motivation example: a 10 Gbps *policy* on the 40 Gbps
    /// wire. All four apps start together; NC stops at figure-time 15 s
    /// (showing whether it was prioritized while present), ML stops at
    /// 30 s, and KVS/WS run until 45 s.
    pub fn motivation_example() -> Scenario {
        let mut s = Scenario::new(BitRate::from_gbps(40.0), Nanos::ZERO);
        s.policy_rate = BitRate::from_gbps(10.0);
        s.horizon = s.fig_secs(45.0);
        let f = |x| s.fig_secs(x);
        s.apps = vec![
            AppSpec::new("NC", 0, 0, 6000, 1, f(0.0), f(15.0)),
            AppSpec::new("KVS", 1, 1, 5001, 1, f(0.0), f(45.0)),
            AppSpec::new("ML", 2, 1, 5002, 1, f(0.0), f(30.0)),
            AppSpec::new("WS", 3, 2, 8080, 1, f(0.0), f(45.0)),
        ];
        s
    }

    /// Figure 11(b): 40 Gbps fair queueing, four apps with `conns`
    /// connections each, staged joins and a staged leave.
    pub fn fair_queueing_40g(conns: usize) -> Scenario {
        let mut s = Scenario::new(BitRate::from_gbps(40.0), Nanos::ZERO);
        s.horizon = s.fig_secs(50.0);
        let f = |x| s.fig_secs(x);
        s.apps = vec![
            AppSpec::new("App0", 0, 0, 9000, conns, f(0.0), f(40.0)),
            AppSpec::new("App1", 1, 1, 9001, conns, f(10.0), f(50.0)),
            AppSpec::new("App2", 2, 2, 9002, conns, f(20.0), f(50.0)),
            AppSpec::new("App3", 3, 3, 9003, conns, f(30.0), f(50.0)),
        ];
        s
    }

    /// Figure 11(c): 40 Gbps weighted fair queueing with the Figure 12
    /// policy (App0:S1 = 1:1, App1:S2 = 1:1, App2:App3 = 1:1).
    pub fn weighted_fairness_40g(conns: usize) -> Scenario {
        let mut s = Scenario::new(BitRate::from_gbps(40.0), Nanos::ZERO);
        s.horizon = s.fig_secs(50.0);
        let f = |x| s.fig_secs(x);
        s.apps = vec![
            AppSpec::new("App0", 0, 0, 9000, conns, f(0.0), f(30.0)),
            AppSpec::new("App1", 1, 1, 9001, conns, f(10.0), f(50.0)),
            AppSpec::new("App2", 2, 2, 9002, conns, f(20.0), f(50.0)),
            AppSpec::new("App3", 3, 3, 9003, conns, f(25.0), f(50.0)),
        ];
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activity_window() {
        let a = AppSpec::new(
            "x",
            0,
            0,
            80,
            1,
            Nanos::from_millis(10),
            Nanos::from_millis(20),
        );
        assert!(!a.active_at(Nanos::from_millis(9)));
        assert!(a.active_at(Nanos::from_millis(10)));
        assert!(a.active_at(Nanos::from_millis(19)));
        assert!(!a.active_at(Nanos::from_millis(20)));
    }

    #[test]
    fn fig_secs_scales() {
        let s = Scenario::new(BitRate::from_gbps(10.0), Nanos::from_millis(1_000));
        assert_eq!(s.fig_secs(2.0), Nanos::from_millis(50));
    }

    #[test]
    fn motivation_staging_matches_figure() {
        let s = Scenario::motivation_example();
        assert_eq!(s.apps.len(), 4);
        let nc = &s.apps[0];
        assert_eq!(nc.name, "NC");
        assert_eq!(nc.stop, s.fig_secs(15.0));
        let ml = &s.apps[2];
        assert_eq!(ml.start, s.fig_secs(0.0));
        assert_eq!(ml.stop, s.fig_secs(30.0));
        // A 10 Gbps policy on a 40 Gbps wire.
        assert_eq!(s.policy_rate, BitRate::from_gbps(10.0));
        assert_eq!(s.link, BitRate::from_gbps(40.0));
        assert_eq!(s.horizon, s.fig_secs(45.0));
        // KVS and ML share vf1 (same VM), WS uses vf2, NC vf0.
        assert_eq!(s.apps[1].vf, s.apps[2].vf);
        assert_ne!(s.apps[0].vf, s.apps[3].vf);
    }

    #[test]
    fn fair_queueing_has_four_staged_apps() {
        let s = Scenario::fair_queueing_40g(4);
        assert_eq!(s.apps.len(), 4);
        assert!(s.apps.iter().all(|a| a.conns == 4));
        assert_eq!(s.link, BitRate::from_gbps(40.0));
        // Staggered joins.
        assert!(s.apps[0].start < s.apps[1].start);
        assert!(s.apps[1].start < s.apps[2].start);
    }

    #[test]
    fn weighted_scenario_app0_leaves_at_30() {
        let s = Scenario::weighted_fairness_40g(4);
        assert_eq!(s.apps[0].stop, s.fig_secs(30.0));
    }
}
