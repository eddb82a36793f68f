//! A window-based TCP congestion-control model (NewReno-style AIMD).
//!
//! The paper's throughput-over-time experiments (Figures 3 and 11) drive
//! iperf3/mTCP TCP flows through the schedulers; the *shapes* of those
//! figures come from congestion-responsive senders converging onto the
//! bandwidth the scheduler leaves them. This model captures exactly that:
//! slow start, congestion-avoidance additive increase, one multiplicative
//! decrease per loss window, and a window/inflight sending gate. Everything
//! else (SACK, timestamps, reordering heuristics) is irrelevant to the
//! reproduced figures and deliberately omitted.

use core::fmt;

/// Congestion-control phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CcPhase {
    /// Exponential window growth below `ssthresh`.
    SlowStart,
    /// Additive increase above `ssthresh`.
    CongestionAvoidance,
}

/// A single TCP connection's congestion state.
///
/// Units: the window is counted in segments (packets), as classic Reno does.
///
/// # Example
///
/// ```
/// use netstack::tcp::TcpConn;
///
/// let mut c = TcpConn::new(1448, 1);
/// let seq = c.on_send();
/// assert!(!c.can_send()); // a window of one segment is full
/// c.on_ack(seq);
/// c.on_send();
/// assert!(c.can_send()); // slow start grew the window to two
/// ```
#[derive(Debug, Clone)]
pub struct TcpConn {
    mss_bytes: u32,
    cwnd: f64,
    ssthresh: f64,
    inflight: u64,
    next_seq: u64,
    highest_acked: u64,
    recover_seq: u64,
    delivered_bytes: u64,
    lost_packets: u64,
}

impl TcpConn {
    /// Minimum congestion window in segments.
    pub const MIN_CWND: f64 = 2.0;

    /// Creates a connection with the given MSS and initial window.
    ///
    /// # Panics
    ///
    /// Panics if `mss_bytes` is zero or `init_cwnd` is zero.
    pub fn new(mss_bytes: u32, init_cwnd: u32) -> Self {
        assert!(mss_bytes > 0, "MSS must be positive");
        assert!(init_cwnd > 0, "initial window must be positive");
        TcpConn {
            mss_bytes,
            cwnd: init_cwnd as f64,
            ssthresh: f64::INFINITY,
            inflight: 0,
            next_seq: 0,
            highest_acked: 0,
            recover_seq: 0,
            delivered_bytes: 0,
            lost_packets: 0,
        }
    }

    /// Total payload bytes acknowledged so far.
    pub fn delivered_bytes(&self) -> u64 {
        self.delivered_bytes
    }

    /// Which growth phase the window is in.
    pub fn phase(&self) -> CcPhase {
        if self.cwnd < self.ssthresh {
            CcPhase::SlowStart
        } else {
            CcPhase::CongestionAvoidance
        }
    }

    /// Whether the window permits sending another segment now.
    pub fn can_send(&self) -> bool {
        (self.inflight as f64) < self.cwnd
    }

    /// Registers one segment entering the network; returns its sequence
    /// number. The caller is responsible for eventually reporting the
    /// segment's fate via [`TcpConn::on_ack`] or [`TcpConn::on_loss`].
    pub fn on_send(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.inflight += 1;
        seq
    }

    /// Acknowledges segment `seq`: grows the window per the current phase.
    pub fn on_ack(&mut self, seq: u64) {
        self.inflight = self.inflight.saturating_sub(1);
        self.highest_acked = self.highest_acked.max(seq);
        self.delivered_bytes += self.mss_bytes as u64;
        match self.phase() {
            CcPhase::SlowStart => self.cwnd += 1.0,
            CcPhase::CongestionAvoidance => self.cwnd += 1.0 / self.cwnd,
        }
    }

    /// Reports segment `seq` as lost. One multiplicative decrease is applied
    /// per loss *window*: further losses of segments sent before the first
    /// loss's reaction point are treated as the same congestion event,
    /// exactly as NewReno's `recover` variable does.
    pub fn on_loss(&mut self, seq: u64) {
        self.inflight = self.inflight.saturating_sub(1);
        self.lost_packets += 1;
        if seq >= self.recover_seq {
            self.ssthresh = (self.cwnd / 2.0).max(Self::MIN_CWND);
            self.cwnd = self.ssthresh;
            self.recover_seq = self.next_seq;
        }
    }

    /// Retransmission timeout: the whole window is considered lost. The
    /// window collapses to the minimum, the threshold halves, and inflight
    /// resets so the sender can restart (classic RTO recovery, minus the
    /// actual retransmission — the reproduction measures wire throughput,
    /// not goodput).
    pub fn on_timeout(&mut self) {
        self.ssthresh = (self.cwnd / 2.0).max(Self::MIN_CWND);
        self.cwnd = Self::MIN_CWND;
        self.lost_packets += self.inflight;
        self.inflight = 0;
        self.recover_seq = self.next_seq;
    }
}

impl fmt::Display for TcpConn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cwnd={:.1} ssthresh={:.1} inflight={} phase={:?}",
            self.cwnd,
            self.ssthresh,
            self.inflight,
            self.phase()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slow_start_doubles_per_window() {
        let mut c = TcpConn::new(1448, 10);
        // Ack a full window: slow start adds 1 per ack -> doubles.
        let seqs: Vec<u64> = (0..10).map(|_| c.on_send()).collect();
        for s in seqs {
            c.on_ack(s);
        }
        assert_eq!(c.cwnd, 20.0);
        assert_eq!(c.phase(), CcPhase::SlowStart);
    }

    #[test]
    fn loss_halves_window_once_per_event() {
        let mut c = TcpConn::new(1448, 16);
        let seqs: Vec<u64> = (0..16).map(|_| c.on_send()).collect();
        // Three losses within the same window count as one congestion event.
        c.on_loss(seqs[3]);
        let after_first = c.cwnd;
        assert_eq!(after_first, 8.0);
        c.on_loss(seqs[5]);
        c.on_loss(seqs[9]);
        assert_eq!(c.cwnd, after_first);
        assert_eq!(c.lost_packets, 3);
    }

    #[test]
    fn losses_in_new_window_halve_again() {
        let mut c = TcpConn::new(1448, 16);
        let s = c.on_send();
        c.on_loss(s); // cwnd 16 -> 8, recover at next_seq = 1
        let s2 = c.on_send(); // seq 1, new window
        c.on_loss(s2);
        assert_eq!(c.cwnd, 4.0);
    }

    #[test]
    fn congestion_avoidance_is_additive() {
        let mut c = TcpConn::new(1448, 16);
        let s = c.on_send();
        c.on_loss(s); // enter CA at cwnd 8
        assert_eq!(c.phase(), CcPhase::CongestionAvoidance);
        let before = c.cwnd;
        // One full window of acks adds ~1 segment.
        let seqs: Vec<u64> = (0..8).map(|_| c.on_send()).collect();
        for s in seqs {
            c.on_ack(s);
        }
        let growth = c.cwnd - before;
        assert!((growth - 1.0).abs() < 0.1, "growth {growth}");
    }

    #[test]
    fn window_never_below_minimum() {
        let mut c = TcpConn::new(1448, 2);
        for _ in 0..5 {
            let s = c.on_send();
            c.on_loss(s);
        }
        assert!(c.cwnd >= TcpConn::MIN_CWND);
    }

    #[test]
    fn can_send_gates_on_window() {
        let mut c = TcpConn::new(1448, 2);
        assert!(c.can_send());
        c.on_send();
        assert!(c.can_send());
        c.on_send();
        assert!(!c.can_send());
        c.on_ack(0);
        assert!(c.can_send());
    }

    #[test]
    fn delivered_bytes_accumulate() {
        let mut c = TcpConn::new(1000, 4);
        let a = c.on_send();
        let b = c.on_send();
        c.on_ack(a);
        c.on_ack(b);
        assert_eq!(c.delivered_bytes(), 2000);
    }

    #[test]
    fn timeout_collapses_window_and_unsticks_sender() {
        let mut c = TcpConn::new(1448, 16);
        for _ in 0..16 {
            c.on_send();
        }
        assert!(!c.can_send());
        c.on_timeout();
        assert_eq!(c.inflight, 0);
        assert_eq!(c.cwnd, TcpConn::MIN_CWND);
        assert!(c.can_send());
        assert_eq!(c.lost_packets, 16);
        assert_eq!(c.ssthresh, 8.0);
    }

    #[test]
    #[should_panic]
    fn zero_mss_rejected() {
        let _ = TcpConn::new(0, 10);
    }
}
