//! Terminal charts for time series.
//!
//! The figure drivers print their throughput-over-time results as compact
//! ASCII charts next to the numeric tables, so a reproduction run can be
//! eyeballed against the paper's figures without leaving the terminal.

use crate::series::BinnedSeries;

/// Block characters from empty to full, for eighth-resolution bars.
const BARS: [char; 9] = [' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Renders one series as a single-line sparkline scaled to `max_gbps`
/// (auto-scales to the series maximum when `max_gbps` is `None`).
///
/// # Example
///
/// ```
/// use sim_core::chart::sparkline;
/// use sim_core::series::BinnedSeries;
/// use sim_core::time::Nanos;
/// use sim_core::units::BitRate;
///
/// let s = BinnedSeries {
///     name: "app".into(),
///     bin: Nanos::from_millis(1_000),
///     rates: vec![BitRate::ZERO, BitRate::from_gbps(5.0), BitRate::from_gbps(10.0)],
/// };
/// assert_eq!(sparkline(&s, Some(10.0)), " ▄█");
/// ```
pub fn sparkline(series: &BinnedSeries, max_gbps: Option<f64>) -> String {
    let max = max_gbps
        .unwrap_or_else(|| {
            series
                .rates
                .iter()
                .map(|r| r.as_gbps())
                .fold(0.0f64, f64::max)
        })
        .max(1e-9);
    series
        .rates
        .iter()
        .map(|r| {
            let frac = (r.as_gbps() / max).clamp(0.0, 1.0);
            BARS[(frac * 8.0).round() as usize]
        })
        .collect()
}

/// Renders several series as labeled sparklines sharing one scale.
///
/// The scale is the maximum rate across all series; each line is
/// `name | sparkline | peak`.
pub fn multi_sparkline(series: &[BinnedSeries]) -> String {
    let max = series
        .iter()
        .flat_map(|s| s.rates.iter())
        .map(|r| r.as_gbps())
        .fold(0.0f64, f64::max)
        .max(1e-9);
    let name_w = series.iter().map(|s| s.name.len()).max().unwrap_or(4);
    let mut out = String::new();
    for s in series {
        let peak = s.rates.iter().map(|r| r.as_gbps()).fold(0.0f64, f64::max);
        out.push_str(&format!(
            "{:<name_w$} |{}| peak {peak:.1} Gbps\n",
            s.name,
            sparkline(s, Some(max)),
        ));
    }
    out.push_str(&format!(
        "{:<name_w$}  (scale: full block = {max:.1} Gbps, one column per bin)\n",
        ""
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::SeriesRecorder;
    use crate::time::Nanos;
    use crate::units::BitRate;

    fn series(name: &str, gbps: &[f64]) -> BinnedSeries {
        BinnedSeries {
            name: name.into(),
            bin: Nanos::from_millis(1_000),
            rates: gbps.iter().map(|&g| BitRate::from_gbps(g)).collect(),
        }
    }

    #[test]
    fn sparkline_scales_to_max() {
        let s = series("x", &[0.0, 2.5, 5.0, 7.5, 10.0]);
        assert_eq!(sparkline(&s, Some(10.0)), " ▂▄▆█");
    }

    #[test]
    fn sparkline_autoscale_peaks_at_full_block() {
        let s = series("x", &[1.0, 3.0]);
        let line = sparkline(&s, None);
        assert!(line.ends_with('█'));
    }

    #[test]
    fn values_above_scale_clamp() {
        let s = series("x", &[20.0]);
        assert_eq!(sparkline(&s, Some(10.0)), "█");
    }

    #[test]
    fn multi_shares_one_scale() {
        let a = series("a", &[10.0, 10.0]);
        let b = series("bb", &[5.0, 5.0]);
        let out = multi_sparkline(&[a, b]);
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].contains("|██|"));
        assert!(lines[1].contains("|▄▄|"));
        assert!(lines[2].contains("full block = 10.0"));
        // Names are padded to equal width.
        assert!(lines[0].starts_with("a  |"));
        assert!(lines[1].starts_with("bb |"));
    }

    #[test]
    fn integrates_with_recorder() {
        let mut rec = SeriesRecorder::new(Nanos::from_micros(1));
        let app0 = rec.series("app0");
        rec.record(app0, Nanos::ZERO, 1_000);
        rec.record(app0, Nanos::from_micros(1), 2_000);
        let all = rec.binned_all(Nanos::from_micros(1));
        let out = multi_sparkline(&all);
        assert!(out.contains("app0"));
    }
}
