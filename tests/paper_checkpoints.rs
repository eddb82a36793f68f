//! The paper's checkpoints, asserted on the committed `results/`.
//!
//! `scripts/check.sh` fails when the figure runner no longer rewrites
//! `results/` byte for byte; these tests fail when what it wrote has
//! drifted off the paper. Every tolerance comes from the paper or from an
//! EXPERIMENTS.md sentence, quoted at its assertion, never from the value
//! measured. A checkpoint that stops holding is recorded under
//! EXPERIMENTS.md's known deviations, not widened here. The shares of
//! Figs. 11(b)/(c) wait for an ideal-allocation oracle.

use fv_telemetry::JsonValue;
use np_sim::config::NicConfig;

/// A figure's rows, each keyed by its first cell (a name or a frame size)
/// and holding the rest as numbers.
type Table = Vec<(String, Vec<f64>)>;

fn table(name: &str) -> Table {
    let path = format!("{}/results/{name}.json", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let doc = JsonValue::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    let rows = doc.as_arr().expect("an array of rows");
    rows.iter()
        .map(|row| {
            let cells = row.as_arr().expect("each row an array");
            let key = match cells[0].as_str() {
                Some(name) => name.to_owned(),
                None => cells[0].as_u64().expect("a name or a size").to_string(),
            };
            let nums = cells[1..].iter().map(|c| c.as_f64().expect("a number"));
            (key, nums.collect())
        })
        .collect()
}

/// The numbers of the first row keyed `key`.
fn row<'a>(table: &'a Table, key: &str) -> &'a [f64] {
    let found = table.iter().find(|(k, _)| k == key);
    &found.unwrap_or_else(|| panic!("no {key:?} row")).1
}

/// Fig. 13: "19.69 Mpps" at 64 B within 2 %; from 512 B up, line rate to
/// the 0.97 that `discussion_100g` calls line-rate-bound; and DPDK needs
/// more than one core at 64 B ("saves at least two CPU cores", §V-B).
#[test]
fn fig13_is_compute_bound_at_64b_and_line_bound_from_512b() {
    let t = table("fig13_max_throughput");
    // Columns: FV Mpps, FV Gbps, DPDK Mpps, DPDK cores, HTB Mpps.
    let at64 = row(&t, "64");
    assert!((at64[0] / 19.69 - 1.0).abs() <= 0.02, "64 B: {at64:?}");
    assert!(at64[3] >= 2.0, "DPDK cores at 64 B: {at64:?}");
    let cfg = NicConfig::agilio_cx_40g();
    for size in [512u64, 1024, 1518] {
        let line = cfg.framing.line_rate_pps(cfg.line_rate, size) / 1e6;
        let fv = row(&t, &size.to_string())[0];
        assert!(fv >= 0.97 * line, "{size} B: {fv} Mpps against line {line}");
    }
}

/// Fig. 3: HTB overruns the 10 Gbps policy by "~20 %" (10–30 % here),
/// ignores KVS's priority over ML ("~1 : 1", 0.9–1.1), and NC is not
/// prioritized to the policy rate.
#[test]
fn fig03_htb_overruns_the_ceiling_and_ignores_kvs_priority() {
    let t = table("fig03_htb_motivation");
    let total = row(&t, "total_15_30")[0];
    assert!((1.10..=1.30).contains(&(total / 10.0)), "total {total}");
    let ratio = row(&t, "kvs_15_30")[0] / row(&t, "ml_15_30")[0];
    assert!((0.9..=1.1).contains(&ratio), "KVS : ML = {ratio}");
    let nc = row(&t, "nc_0_15")[0];
    assert!(nc < 10.0, "NC {nc}");
}

/// Fig. 11(a): NC takes all available bandwidth, the 10 Gbps ceiling holds
/// to the ~3 % of EXPERIMENTS.md's known deviation 2, ML keeps its 2 Gbps
/// guarantee below KVS, and WS gets its weight's 1/3 of S1 within 10 %.
#[test]
fn fig11a_flowvalve_enforces_the_motivation_policy() {
    let t = table("fig11a_flowvalve_motivation");
    let [nc, kvs, ml, ws, total] = [
        "nc_0_15",
        "kvs_15_30",
        "ml_15_30",
        "ws_15_30",
        "total_15_30",
    ]
    .map(|k| row(&t, k)[0]);
    assert!(nc >= 9.0, "NC {nc}");
    assert!(total <= 10.0 * 1.03, "total {total}");
    assert!(ml >= 2.0 && kvs > ml, "KVS {kvs} ML {ml}");
    assert!((ws / (10.0 / 3.0) - 1.0).abs() <= 0.10, "WS {ws}");
}

/// Fig. 14: at 10 G FlowValve < DPDK ≪ HTB (an order of magnitude); at
/// 40 G the scheduling-off floor is the paper's 161 µs within 5 %, and
/// FlowValve varies less than at 10 G.
#[test]
fn fig14_flowvalve_is_lowest_at_10g_and_on_the_floor_at_40g() {
    let t = table("fig14_one_way_delay");
    // Columns: mean, standard deviation, p99, all in µs.
    let fv10 = row(&t, "flowvalve@10G");
    let dpdk10 = row(&t, "dpdk-qos@10G (2 cores)");
    let htb10 = row(&t, "kernel-htb@10G");
    assert!(fv10[0] < dpdk10[0], "FV {fv10:?} DPDK {dpdk10:?}");
    assert!(htb10[0] >= 10.0 * fv10[0], "HTB {htb10:?} FV {fv10:?}");
    let floor = row(&t, "forward-only@40G")[0];
    assert!((floor / 161.0 - 1.0).abs() <= 0.05, "floor {floor} µs");
    let fv40 = row(&t, "flowvalve@40G");
    assert!(fv40[1] < fv10[1], "sd at 40G {fv40:?} at 10G {fv10:?}");
}

/// §VI: on the 100 GbE profile 1024 B and 1500 B traffic is line-rate
/// bound (0.97 of line) and only 64 B frames stay compute-bound.
#[test]
fn discussion_100g_is_line_bound_except_at_64b() {
    let t = table("discussion_100g");
    // Columns: line Mpps, FV Mpps, FV Gbps.
    for size in ["1024", "1500"] {
        let r = row(&t, size);
        assert!(r[1] >= 0.97 * r[0], "{size} B: {r:?}");
    }
    let r = row(&t, "64");
    assert!(r[1] < 0.97 * r[0], "64 B: {r:?}");
}

/// Observation 2: thrashing the flow cache "halves" the 64 B rate (0.4–0.6
/// of the rate with the working set fitting), at each flow count.
#[test]
fn a_thrashed_flow_cache_halves_the_64b_rate() {
    let t = table("ablation_flow_cache");
    // Columns: flows, Mpps, hit ratio.
    let rows = |key: &str| -> Vec<&[f64]> {
        let of_key = t.iter().filter(|(k, _)| k == key);
        of_key.map(|(_, v)| v.as_slice()).collect()
    };
    let (fits, thrashed) = (rows("cache (fits)"), rows("cache thrashed"));
    assert!(!fits.is_empty() && fits.len() == thrashed.len());
    for (f, t) in fits.iter().zip(&thrashed) {
        assert_eq!(f[0], t[0], "rows pair by flow count");
        let share = t[1] / f[1];
        assert!((0.4..=0.6).contains(&share), "{} flows: {share}", f[0]);
    }
}

/// Fig. 7: FlowValve's per-class try-locks never block, one global
/// blocking lock serializes every packet's updates; the committed 64 B
/// rates keep at least the factor of five `tests/lock_ablation.rs` shows
/// the mechanism of.
#[test]
fn per_class_try_locks_forward_five_times_the_global_locks_64b_rate() {
    let t = table("fig07_lock_ablation");
    // Columns: 64 B Mpps, 1518 B Gbps.
    let per_class = row(&t, "per-class try-lock")[0];
    let global = row(&t, "global blocking lock")[0];
    assert!(
        per_class >= 5.0 * global,
        "per-class {per_class} Mpps vs global {global} Mpps at 64 B"
    );
}
