//! The virtual-time time-series sampler.
//!
//! A [`TimeSampler`] is driven from the simulation's event loop: call
//! [`TimeSampler::advance_to`] as virtual time moves, and on every
//! interval boundary (a [`sim_core::tick::Ticker`] tick) it reads the
//! registry's counter totals and appends one [`Frame`] of *deltas* — how
//! much each counter grew over the closed interval. Frames live in a
//! bounded ring: when full, the oldest frame is discarded,
//! so a sampler attached to an unbounded run uses bounded memory.
//!
//! Deltas, not totals, are the exported unit because every downstream
//! consumer wants a rate: `delta / interval` is the per-interval rate,
//! and [`TimeSampler::window_rate`] sums deltas over `(from, to]` for
//! the SLO checker's steady-state windows.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::Arc;

use fv_telemetry::json::JsonValue;
use fv_telemetry::metrics::Counter;
use fv_telemetry::Registry;
use sim_core::tick::Ticker;
use sim_core::time::Nanos;

/// How a [`TimeSampler`] samples.
#[derive(Debug, Clone)]
pub struct SamplerConfig {
    /// Virtual time between frames (default 1 ms).
    pub interval: Nanos,
    /// Maximum retained frames; older frames are dropped (default 4096).
    pub capacity: usize,
    /// Counter-name prefixes to sample; empty samples every counter.
    pub prefixes: Vec<String>,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig {
            interval: Nanos::from_millis(1),
            capacity: 4096,
            prefixes: Vec::new(),
        }
    }
}

impl SamplerConfig {
    /// Sets the sampling interval (builder-style).
    pub fn with_interval(mut self, interval: Nanos) -> Self {
        self.interval = interval;
        self
    }

    /// Restricts sampling to counters starting with `prefix`.
    pub fn with_prefix(mut self, prefix: impl Into<String>) -> Self {
        self.prefixes.push(prefix.into());
        self
    }

    fn matches(&self, name: &str) -> bool {
        self.prefixes.is_empty() || self.prefixes.iter().any(|p| name.starts_with(p))
    }
}

/// One sample: counter deltas over the interval ending at `at`.
///
/// `deltas[i]` belongs to the sampler's `names()[i]`; frames taken before
/// a counter first registered are shorter, and exporters pad them with
/// zeros (a counter that did not exist accumulated nothing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// End of the interval this frame covers.
    pub at: Nanos,
    /// Per-counter growth over the interval, indexed like `names()`.
    pub deltas: Vec<u64>,
}

/// Samples registry counters into a bounded ring of delta frames.
///
/// # Example
///
/// ```
/// use fv_scope::sampler::{SamplerConfig, TimeSampler};
/// use fv_telemetry::Registry;
/// use sim_core::time::Nanos;
///
/// let reg = Registry::new();
/// let tx = reg.counter("nic.tx_bits");
/// let cfg = SamplerConfig::default().with_interval(Nanos::from_micros(10));
/// let mut sampler = TimeSampler::new(&reg, cfg);
///
/// tx.add(8_000);
/// sampler.advance_to(Nanos::from_micros(10)); // closes the first interval
/// tx.add(4_000);
/// sampler.advance_to(Nanos::from_micros(25)); // closes the second
///
/// let frames: Vec<_> = sampler.frames().collect();
/// assert_eq!(frames.len(), 2);
/// assert_eq!(frames[0].deltas, [8_000]);
/// assert_eq!(frames[1].deltas, [4_000]);
/// ```
#[derive(Debug)]
pub struct TimeSampler {
    registry: Registry,
    cfg: SamplerConfig,
    ticker: Ticker,
    names: Vec<String>,
    index: HashMap<String, usize>,
    /// Cached counter handles, column-aligned with `names`. Resolved once
    /// at attach time and re-resolved only when the registry's counter
    /// generation moves: the per-tick path reads totals through these
    /// wait-free `Arc`s instead of walking the registry under its lock.
    handles: Vec<Arc<Counter>>,
    /// The [`Registry::counter_generation`] the handle cache reflects.
    seen_gen: u64,
    last: Vec<u64>,
    frames: VecDeque<Frame>,
}

impl TimeSampler {
    /// Attaches a sampler to `registry`. Counters existing at attach time
    /// are baselined immediately; counters that register later join the
    /// series at their first sampled tick.
    pub fn new(registry: &Registry, cfg: SamplerConfig) -> TimeSampler {
        let ticker = Ticker::new(cfg.interval);
        let mut s = TimeSampler {
            registry: registry.clone(),
            cfg,
            ticker,
            names: Vec::new(),
            index: HashMap::new(),
            handles: Vec::new(),
            seen_gen: registry.counter_generation(),
            last: Vec::new(),
            frames: VecDeque::new(),
        };
        // Baseline without emitting a frame: pre-attach accumulation is
        // not part of any sampled interval.
        for (name, handle) in s.registry.counter_handles() {
            if s.cfg.matches(&name) {
                let total = handle.total();
                s.admit(name, handle, total);
            }
        }
        s
    }

    fn admit(&mut self, name: String, handle: Arc<Counter>, baseline: u64) -> usize {
        let idx = self.names.len();
        self.index.insert(name.clone(), idx);
        self.names.push(name);
        self.handles.push(handle);
        self.last.push(baseline);
        idx
    }

    /// Folds counters that registered since the last rescan into the
    /// column set. Cold path: runs only when the registry's counter
    /// generation moved. A mid-run counter is admitted with a zero
    /// baseline — its whole total accumulated within sampled time, so it
    /// becomes the first frame's delta.
    fn rescan(&mut self) {
        self.seen_gen = self.registry.counter_generation();
        for (name, handle) in self.registry.counter_handles() {
            if self.cfg.matches(&name) && !self.index.contains_key(&name) {
                self.admit(name, handle, 0);
            }
        }
    }

    /// Retained frames, oldest first.
    pub fn frames(&self) -> impl ExactSizeIterator<Item = &Frame> {
        self.frames.iter()
    }

    /// Advances virtual time to `now`, emitting one frame per interval
    /// boundary crossed. Call with monotonically non-decreasing times;
    /// calls that cross no boundary are cheap (one comparison).
    pub fn advance_to(&mut self, now: Nanos) {
        if self.ticker.next_tick() > now {
            return;
        }
        let due: Vec<Nanos> = self.ticker.due(now).collect();
        for at in due {
            self.sample_at(at);
        }
    }

    fn sample_at(&mut self, at: Nanos) {
        // One atomic load answers "did any counter register since my last
        // tick?"; the rescan (registry lock, name clones) happens only
        // when it did, so steady-state ticks are pure handle reads.
        if self.registry.counter_generation() != self.seen_gen {
            self.rescan();
        }
        let mut deltas = Vec::with_capacity(self.handles.len());
        for (i, handle) in self.handles.iter().enumerate() {
            let total = handle.total();
            deltas.push(total - self.last[i]);
            self.last[i] = total;
        }
        if self.frames.len() >= self.cfg.capacity {
            self.frames.pop_front();
        }
        self.frames.push_back(Frame { at, deltas });
    }

    /// Average growth per second of counter `name` over the frames in
    /// `(from, to]`. `None` when the counter is unknown, the window is
    /// empty (no frames, or `to <= from`), or part of the window was
    /// evicted from the ring.
    pub fn window_rate(&self, name: &str, from: Nanos, to: Nanos) -> Option<f64> {
        let &idx = self.index.get(name)?;
        if to <= from {
            return None;
        }
        // The window must be fully covered by retained frames.
        let first_retained = self.frames.front()?.at;
        if first_retained.saturating_sub(self.cfg.interval) > from {
            return None;
        }
        let mut sum = 0u64;
        let mut any = false;
        for f in &self.frames {
            if f.at > from && f.at <= to {
                sum += f.deltas.get(idx).copied().unwrap_or(0);
                any = true;
            }
        }
        if !any {
            return None;
        }
        Some(sum as f64 / (to - from).as_secs_f64())
    }

    /// CSV export: header `t_ns,<name>,…`, one row per frame, short
    /// (early) frames padded with zeros.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("t_ns");
        for n in &self.names {
            out.push(',');
            out.push_str(n);
        }
        out.push('\n');
        for f in &self.frames {
            out.push_str(&f.at.as_nanos().to_string());
            for i in 0..self.names.len() {
                out.push(',');
                out.push_str(&f.deltas.get(i).copied().unwrap_or(0).to_string());
            }
            out.push('\n');
        }
        out
    }

    /// JSONL export: one object per frame, `{"t_ns": …, "deltas": {…}}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for f in &self.frames {
            let doc = JsonValue::obj([
                ("t_ns", JsonValue::UInt(f.at.as_nanos())),
                (
                    "deltas",
                    JsonValue::Obj(
                        self.names
                            .iter()
                            .enumerate()
                            .map(|(i, n)| {
                                (
                                    n.clone(),
                                    JsonValue::UInt(f.deltas.get(i).copied().unwrap_or(0)),
                                )
                            })
                            .collect(),
                    ),
                ),
            ]);
            out.push_str(&doc.to_compact());
            out.push('\n');
        }
        out
    }
}

/// Renders a registry snapshot in the Prometheus text exposition format.
///
/// Metric names are sanitized (`[^a-zA-Z0-9_:]` → `_`) and prefixed with
/// `fv_`; histograms export as summaries with `quantile` labels.
pub fn prometheus_text(snapshot: &fv_telemetry::Snapshot) -> String {
    use fv_telemetry::MetricValue;

    fn sanitize(name: &str) -> String {
        let mut out = String::from("fv_");
        for c in name.chars() {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                out.push(c);
            } else {
                out.push('_');
            }
        }
        out
    }

    let mut out = String::new();
    for e in &snapshot.entries {
        let name = sanitize(&e.name);
        match &e.value {
            MetricValue::Counter(v) => {
                out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
            }
            MetricValue::Gauge { value, max } => {
                out.push_str(&format!(
                    "# TYPE {name} gauge\n{name} {value}\n{name}_max {max}\n"
                ));
            }
            MetricValue::Histogram(h) => {
                out.push_str(&format!("# TYPE {name} summary\n"));
                for (q, v) in [
                    ("0.5", h.p50),
                    ("0.9", h.p90),
                    ("0.99", h.p99),
                    ("0.999", h.p999),
                ] {
                    out.push_str(&format!("{name}{{quantile=\"{q}\"}} {v}\n"));
                }
                out.push_str(&format!("{name}_sum {}\n{name}_count {}\n", h.sum, h.count));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> Nanos {
        Nanos::from_micros(n)
    }

    #[test]
    fn deltas_reset_every_interval() {
        let reg = Registry::new();
        let c = reg.counter("x");
        let mut s = TimeSampler::new(&reg, SamplerConfig::default().with_interval(us(10)));
        c.add(100);
        s.advance_to(us(10));
        s.advance_to(us(20)); // nothing accumulated
        c.add(50);
        s.advance_to(us(30));
        assert_eq!(s.to_csv(), "t_ns,x\n10000,100\n20000,0\n30000,50\n");
    }

    #[test]
    fn pre_attach_totals_are_baselined_not_sampled() {
        let reg = Registry::new();
        let c = reg.counter("x");
        c.add(1_000_000); // before the sampler exists
        let mut s = TimeSampler::new(&reg, SamplerConfig::default().with_interval(us(10)));
        c.add(5);
        s.advance_to(us(10));
        assert_eq!(s.to_csv(), "t_ns,x\n10000,5\n");
    }

    #[test]
    fn late_registering_counters_join_mid_run() {
        let reg = Registry::new();
        let a = reg.counter("a");
        let mut s = TimeSampler::new(&reg, SamplerConfig::default().with_interval(us(10)));
        a.add(1);
        s.advance_to(us(10));
        let b = reg.counter("b"); // registers after the first frame
        b.add(7);
        s.advance_to(us(20));
        assert_eq!(s.names, ["a", "b"]);
        // b's first frame is padded to zero in CSV, 7 in the second row.
        let csv = s.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "t_ns,a,b");
        assert_eq!(lines[1], "10000,1,0");
        assert_eq!(lines[2], "20000,0,7");
    }

    #[test]
    fn prefix_filter_limits_columns() {
        let reg = Registry::new();
        reg.counter("nic.tx").add(1);
        reg.counter("tm.fifo.tx").add(2);
        let mut s = TimeSampler::new(
            &reg,
            SamplerConfig::default()
                .with_interval(us(10))
                .with_prefix("nic."),
        );
        s.advance_to(us(10));
        assert_eq!(s.names, ["nic.tx"]);
    }

    #[test]
    fn ring_is_bounded_and_counts_evictions() {
        let reg = Registry::new();
        reg.counter("x");
        let cfg = SamplerConfig {
            interval: us(1),
            capacity: 4,
            prefixes: Vec::new(),
        };
        let mut s = TimeSampler::new(&reg, cfg);
        s.advance_to(us(10));
        assert_eq!(s.frames().len(), 4);
        assert_eq!(s.frames().next().unwrap().at, us(7));
    }

    #[test]
    fn window_rate_averages_over_the_window() {
        let reg = Registry::new();
        let c = reg.counter("bits");
        let mut s = TimeSampler::new(&reg, SamplerConfig::default().with_interval(us(10)));
        // 8000 bits per 10 us = 800 Mbit/s, over 5 intervals.
        for i in 1..=5u64 {
            c.add(8_000);
            s.advance_to(us(i * 10));
        }
        let rate = s.window_rate("bits", us(10), us(50)).unwrap();
        assert!((rate - 8e8).abs() / 8e8 < 1e-9, "rate {rate}");
        // Unknown counter and empty windows are None, not 0.
        assert!(s.window_rate("nope", us(10), us(50)).is_none());
        assert!(s.window_rate("bits", us(50), us(50)).is_none());
        assert!(s.window_rate("bits", us(60), us(90)).is_none());
    }

    #[test]
    fn window_rate_refuses_evicted_windows() {
        let reg = Registry::new();
        let c = reg.counter("x");
        let cfg = SamplerConfig {
            interval: us(1),
            capacity: 2,
            prefixes: Vec::new(),
        };
        let mut s = TimeSampler::new(&reg, cfg);
        c.add(10);
        s.advance_to(us(10)); // frames 9, 10 retained; 1-8 evicted
        assert!(s.window_rate("x", Nanos::ZERO, us(10)).is_none());
        assert!(s.window_rate("x", us(8), us(10)).is_some());
    }

    #[test]
    fn jsonl_frames_parse_back() {
        let reg = Registry::new();
        let c = reg.counter("x");
        let mut s = TimeSampler::new(&reg, SamplerConfig::default().with_interval(us(10)));
        c.add(3);
        s.advance_to(us(10));
        let line = s.to_jsonl();
        let doc = JsonValue::parse(line.trim()).unwrap();
        assert_eq!(doc.get("t_ns").and_then(JsonValue::as_u64), Some(10_000));
        assert_eq!(
            doc.get("deltas")
                .and_then(|d| d.get("x"))
                .and_then(JsonValue::as_u64),
            Some(3)
        );
    }

    #[test]
    fn prometheus_text_covers_all_metric_kinds() {
        let reg = Registry::new();
        reg.counter("nic.tx_packets").add(5);
        reg.gauge("tm.fifo.backlog_bytes").set(100);
        reg.histogram("span.wire_ns").record(1_000);
        let text = prometheus_text(&reg.snapshot(us(10)));
        assert!(text.contains("# TYPE fv_nic_tx_packets counter"));
        assert!(text.contains("fv_nic_tx_packets 5"));
        assert!(text.contains("fv_tm_fifo_backlog_bytes 100"));
        assert!(text.contains("fv_span_wire_ns{quantile=\"0.99\"}"));
        assert!(text.contains("fv_span_wire_ns_count 1"));
        // Sanitized: no dots survive.
        assert!(!text.contains("nic.tx_packets"));
    }
}
