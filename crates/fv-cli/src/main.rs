//! `fv` — the FlowValve command-line front end.
//!
//! ```text
//! fv check <script.fv>           parse and validate a policy script,
//!                                then run the saturation demo and check
//!                                rate-conformance SLOs against it
//! fv show  <script.fv>           print the compiled scheduling tree
//! fv demo  <script.fv> [--json]  run a 10 ms saturation demo on the NIC
//!                                model and print per-class rates and
//!                                verdicts (--json: machine-readable
//!                                telemetry snapshot)
//! fv stats <script.fv> [--json]  run the same demo and print
//!                                `tc -s qdisc show`-style statistics
//! fv trace <script.fv> [--out FILE]
//!                                run the demo with per-packet span
//!                                tracing and export a Chrome-trace JSON
//!                                document (open in chrome://tracing or
//!                                Perfetto); without --out the JSON goes
//!                                to stdout
//! fv timeseries <script.fv> [--csv|--jsonl|--prom] [--interval-us N]
//!                                run the demo with the virtual-time
//!                                sampler attached and export the
//!                                counter-delta time series
//! fv chaos <script.fv> --plan <plan> [--json] [--flight FILE]
//!                                run the demo with the plan's faults
//!                                injected and judge post-fault recovery
//!                                (--json: deterministic, replayable
//!                                report for diffing; --flight: write a
//!                                flight-recorder dump covering the fault
//!                                windows)
//! fv profile <script.fv> [--folded|--json] [--out FILE]
//!                                run the demo with the attribution
//!                                profiler attached and print the
//!                                cycle/contention/latency profile
//!                                (--folded: flamegraph folded stacks)
//! fv top <script.fv>             run the profiled demo and print the
//!                                heaviest flows and most contended locks
//! fv why <script.fv> --pkt <id>|--flow <class> [--json]
//!                                run the demo with provenance capture and
//!                                explain a sampled scheduling decision:
//!                                every executed chain step with bucket
//!                                tokens before/after, the deciding step,
//!                                and whether the flow cache classified it
//! fv audit <script.fv> [--plan <plan>] [--json] [--flight FILE]
//!                                run the demo (or a faulted run under
//!                                --plan) with provenance capture and fold
//!                                the records through the
//!                                token-conservation ledger; exits 1 on
//!                                any conservation break
//!                                (--inject-mischarge: corrupt one record
//!                                first, proving the auditor catches it)
//! fv bench-diff <new.json> <base.json> [--tolerance-pct N] [--only PREFIX]
//!                                compare two BENCH_*.json documents and
//!                                fail on perf regressions past tolerance
//! ```
//!
//! `fv check` also accepts `--flight FILE`: on SLO violation it dumps the
//! attribution profile plus the trace-ring tail for post-mortem analysis.
//!
//! Scripts use the `tc`-style dialect documented in
//! `flowvalve::frontend`; `-` reads from stdin.

use std::io::Read;
use std::process::ExitCode;
use std::sync::Arc;

use flowvalve::frontend::Policy;
use flowvalve::label::ClassId;
use flowvalve::pipeline::FlowValvePipeline;
use flowvalve::tree::{SchedulingTree, TreeParams};
use fv_audit::{
    AuditVerdict, BucketSnapshot, Ledger, ProvenanceRecord, ProvenanceRing, Sampler, StepKind,
};
use fv_probe::{diff_docs, flight_doc, rank_locks, LatencyAttr, ProbeReport, UNATTRIBUTED};
use fv_scope::{chrome_trace, evaluate, latency_table, prometheus_text, Slo};
use fv_scope::{SamplerConfig, TimeSampler};
use fv_telemetry::{JsonValue, MetricValue, Registry, Snapshot, ToJson};
use netstack::flow::FlowKey;
use netstack::gen::{ArrivalProcess, LineRateProcess};
use netstack::packet::{AppId, Packet, PacketIdGen, VfPort};
use np_sim::config::NicConfig;
use np_sim::cost::CycleAttr;
use np_sim::lock::PerLockStats;
use np_sim::nic::SmartNic;
use sim_core::rng::SimRng;
use sim_core::time::Nanos;
use sim_core::units::BitRate;

fn read_script(path: &str) -> std::io::Result<String> {
    if path == "-" {
        let mut s = String::new();
        std::io::stdin().read_to_string(&mut s)?;
        Ok(s)
    } else {
        std::fs::read_to_string(path)
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: fv <check|show|demo|stats|trace|timeseries|chaos|profile|top|why|audit> \
         <script.fv|-> [--json] [--out FILE] [--csv|--jsonl|--prom] \
         [--interval-us N] [--plan FILE] [--folded] [--flight FILE] \
         [--pkt ID] [--flow CLASS] [--inject-mischarge]\n\
         \x20      fv bench-diff <new.json> <base.json> [--tolerance-pct N] \
         [--only PREFIX]"
    );
    ExitCode::from(2)
}

/// Parsed command-line flags (everything after the positionals).
#[derive(Default)]
struct Flags {
    json: bool,
    csv: bool,
    jsonl: bool,
    prom: bool,
    folded: bool,
    out: Option<String>,
    interval_us: Option<u64>,
    plan: Option<String>,
    /// Flight-recorder output path (`fv check` / `fv chaos`).
    flight: Option<String>,
    /// Regression tolerance for `fv bench-diff`, in percent.
    tolerance_pct: Option<f64>,
    /// Bench-name prefixes `fv bench-diff` restricts itself to.
    only: Vec<String>,
    /// Packet id `fv why` explains.
    pkt: Option<u64>,
    /// Class (`1:10`, `10` or a class name) `fv why` explains.
    flow: Option<String>,
    /// `fv audit` self-test: corrupt one provenance record before the
    /// ledger runs, proving a mischarge is caught (must exit 1).
    inject_mischarge: bool,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = Flags::default();
    let mut positional: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => flags.json = true,
            "--csv" => flags.csv = true,
            "--jsonl" => flags.jsonl = true,
            "--prom" => flags.prom = true,
            "--folded" => flags.folded = true,
            "--out" => flags.out = it.next().cloned(),
            "--interval-us" => flags.interval_us = it.next().and_then(|v| v.parse().ok()),
            "--plan" => flags.plan = it.next().cloned(),
            "--flight" => flags.flight = it.next().cloned(),
            "--tolerance-pct" => flags.tolerance_pct = it.next().and_then(|v| v.parse().ok()),
            "--only" => flags.only.extend(it.next().cloned()),
            "--pkt" => flags.pkt = it.next().and_then(|v| v.parse().ok()),
            "--flow" => flags.flow = it.next().cloned(),
            "--inject-mischarge" => flags.inject_mischarge = true,
            a if a.starts_with("--out=") => {
                flags.out = Some(a["--out=".len()..].to_owned());
            }
            a if a.starts_with("--plan=") => {
                flags.plan = Some(a["--plan=".len()..].to_owned());
            }
            a if a.starts_with("--interval-us=") => {
                flags.interval_us = a["--interval-us=".len()..].parse().ok();
            }
            a if a.starts_with("--flight=") => {
                flags.flight = Some(a["--flight=".len()..].to_owned());
            }
            a if a.starts_with("--tolerance-pct=") => {
                flags.tolerance_pct = a["--tolerance-pct=".len()..].parse().ok();
            }
            a if a.starts_with("--only=") => {
                flags.only.push(a["--only=".len()..].to_owned());
            }
            a if a.starts_with("--pkt=") => {
                flags.pkt = a["--pkt=".len()..].parse().ok();
            }
            a if a.starts_with("--flow=") => {
                flags.flow = Some(a["--flow=".len()..].to_owned());
            }
            // Unknown flags are ignored, matching the old behaviour.
            a if a.starts_with("--") => {}
            a => positional.push(a),
        }
    }
    // `bench-diff` compares two JSON documents — no policy script involved.
    if let ["bench-diff", new_path, base_path] = positional.as_slice() {
        return bench_diff(new_path, base_path, &flags);
    }
    let (cmd, path) = match positional.as_slice() {
        [cmd, path] => (*cmd, *path),
        _ => return usage(),
    };

    let script = match read_script(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("fv: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let policy = match Policy::parse(&script) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("fv: parse error: {e}");
            return ExitCode::FAILURE;
        }
    };

    match cmd {
        "check" => check(&policy, &flags),
        "show" => match policy.compile(TreeParams::default()) {
            Ok((tree, _, _)) => {
                print!("{}", tree.render());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("fv: {e}");
                ExitCode::FAILURE
            }
        },
        "demo" => demo(&policy, flags.json),
        "stats" => stats(&policy, flags.json),
        "trace" => trace(&policy, &flags),
        "timeseries" => timeseries(&policy, &flags),
        "chaos" => chaos(&policy, &flags),
        "profile" => profile(&policy, &flags),
        "top" => top(&policy),
        "why" => why(&policy, &flags),
        "audit" => audit_cmd(&policy, &flags),
        _ => usage(),
    }
}

/// Knobs for [`run_workload`] beyond the policy itself.
struct RunOptions {
    /// Event-ring capacity (`fv trace` wants a deep ring).
    ring_capacity: usize,
    /// Attach a virtual-time sampler with this configuration.
    sampler: Option<SamplerConfig>,
    /// Attach the attribution probes (cycle + latency).
    probe: bool,
    /// Attach sampled provenance capture with this 1-in-2^n sampling
    /// shift; after the run the records are folded through the
    /// conservation ledger into `audit.*` counters. The default shift
    /// keeps every sampled packet id of the 10 ms demo resident in the
    /// provenance ring (capacity × 2^shift id window).
    audit: Option<u32>,
}

/// Default provenance sampling: 1 packet in 2^6 = 64.
const AUDIT_SHIFT: u32 = 6;
/// Provenance-ring slots; with [`AUDIT_SHIFT`] this retains a lossless
/// window of 262144 packet ids, several times the demo's packet count.
const AUDIT_RING_CAPACITY: usize = 4096;

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            ring_capacity: 1024,
            sampler: None,
            probe: false,
            audit: Some(AUDIT_SHIFT),
        }
    }
}

/// The attribution probes attached to a run when `RunOptions::probe` is
/// set: the cycle-attribution array shared with the NIC's cost meter and
/// the latency sink installed on the registry's span path.
struct ProbeHandles {
    attr: Arc<CycleAttr>,
    latency: Arc<LatencyAttr>,
}

/// The provenance capture attached to a run when `RunOptions::audit` is
/// set; the conservation ledger has already been folded into the run's
/// `audit.*` counters by the time this is handed out.
struct AuditHandles {
    ring: Arc<ProvenanceRing>,
    slab: Vec<BucketSnapshot>,
    shift: u32,
}

/// Everything a reporting command needs after the saturation run.
struct DemoRun {
    snapshot: Snapshot,
    tree: std::sync::Arc<SchedulingTree>,
    flows: usize,
    offered: BitRate,
    registry: Registry,
    sampler: Option<TimeSampler>,
    horizon: Nanos,
    probe: Option<ProbeHandles>,
    /// Per-lock contention rows, collected on every run (cheap).
    lock_profile: Vec<PerLockStats>,
    /// `stable_hash` → flow key, so profile output can name flows.
    flow_names: Vec<(u64, FlowKey)>,
    /// Provenance ring and conservation report when auditing was on.
    audit: Option<AuditHandles>,
}

/// Saturates every filtered class with an equal share of 1.5x line rate
/// for 10 ms of simulated time, with full telemetry attached, and returns
/// the end-of-run registry snapshot.
fn run_workload(policy: &Policy, opts: RunOptions) -> Result<DemoRun, String> {
    let cfg = NicConfig::agilio_cx_40g();
    let pipeline = FlowValvePipeline::compile(policy, TreeParams::default(), &cfg)
        .map_err(|e| e.to_string())?;
    let tree = pipeline.tree().clone();
    let line = cfg.line_rate;
    let framing = cfg.framing;
    let num_mes = cfg.num_mes;
    let registry = Registry::with_ring_capacity(opts.ring_capacity);
    let mut nic = SmartNic::with_registry(cfg, Box::new(pipeline), &registry);
    let audit_hook = opts.audit.map(|shift| {
        (
            Arc::new(ProvenanceRing::sampled(AUDIT_RING_CAPACITY, shift)),
            shift,
        )
    });
    if let Some(p) = nic.decider_as::<FlowValvePipeline>() {
        p.attach_telemetry(&registry);
        if let Some((ring, shift)) = &audit_hook {
            p.attach_auditor(ring.clone(), Sampler::one_in_pow2(*shift));
        }
    }
    let probe = if opts.probe {
        let attr = Arc::new(CycleAttr::new(num_mes));
        nic.attach_probe(attr.clone());
        let latency = Arc::new(LatencyAttr::new());
        registry.install_span_sink(latency.clone());
        Some(ProbeHandles { attr, latency })
    } else {
        None
    };
    let mut sampler = opts.sampler.map(|cfg| TimeSampler::new(&registry, cfg));

    // One flow per filter, matched as precisely as the filter allows.
    let mut flows: Vec<(FlowKey, VfPort)> = Vec::new();
    for (i, f) in policy.filters.iter().enumerate() {
        let m = &f.matcher;
        let flow = FlowKey::tcp(
            [10, 0, 0, 10 + i as u8],
            m.src_port.unwrap_or(41_000 + i as u16),
            [10, 0, 255, 1],
            m.dst_port.unwrap_or(5_000 + i as u16),
        );
        flows.push((flow, m.vf.unwrap_or(VfPort(i as u8))));
    }
    if flows.is_empty() {
        return Err("no filters to demo".into());
    }

    let horizon = Nanos::from_millis(10);
    let mut rng = SimRng::seed(1);
    let mut ids = PacketIdGen::new();
    // Each flow offers an equal slice of 1.5x line rate: collectively
    // oversubscribed so the policy has something to decide.
    let offered = line.scaled(3, 2 * flows.len() as u64);
    let mut gens: Vec<LineRateProcess> = flows
        .iter()
        .map(|_| LineRateProcess::new(offered, 1518, framing))
        .collect();
    let mut next: Vec<Nanos> = gens
        .iter_mut()
        .map(|g| Nanos::ZERO + g.next_arrival(&mut rng).0)
        .collect();

    loop {
        let (idx, &t) = next
            .iter()
            .enumerate()
            .min_by_key(|&(i, &t)| (t, i))
            .expect("flows is non-empty");
        if t >= horizon {
            break;
        }
        let (flow, vf) = flows[idx];
        if let Some(s) = sampler.as_mut() {
            s.advance_to(t);
        }
        let pkt = Packet::new(ids.next_id(), flow, 1518, AppId(idx as u16), vf, t);
        let _ = nic.rx(&pkt, t);
        next[idx] = t + gens[idx].next_arrival(&mut rng).0;
    }
    if let Some(s) = sampler.as_mut() {
        s.advance_to(horizon);
    }

    // Publish cold-path gauges (per-engine utilization, θ/Γ) and capture.
    nic.sync_gauges(horizon);
    if let Some(p) = nic.decider_as::<FlowValvePipeline>() {
        p.sync_gauges(horizon);
    }
    let lock_profile = nic.per_lock_stats().to_vec();
    let flow_names = flows.iter().map(|(f, _)| (f.stable_hash(), *f)).collect();
    // Fold the sampled provenance through the conservation ledger before
    // the snapshot, so `audit.*` counters are part of it.
    let audit = audit_hook.map(|(ring, shift)| {
        let slab = tree.slab_snapshot();
        Ledger::audit(&ring.records(), &slab).install_counters(&registry, 0);
        AuditHandles { ring, slab, shift }
    });
    Ok(DemoRun {
        snapshot: registry.snapshot(horizon),
        tree,
        flows: flows.len(),
        offered,
        registry,
        sampler,
        horizon,
        probe,
        lock_profile,
        flow_names,
        audit,
    })
}

fn gauge_of(snapshot: &Snapshot, name: &str) -> u64 {
    match snapshot.get(name) {
        Some(MetricValue::Gauge { value, .. }) => *value,
        _ => 0,
    }
}

fn fmt_bps(bps: u64) -> String {
    format!("{}", BitRate::from_bps(bps))
}

/// Runs the saturation demo and prints per-class verdicts, all routed
/// through the telemetry snapshot (`--json` dumps the whole snapshot).
fn demo(policy: &Policy, json: bool) -> ExitCode {
    let run = match run_workload(policy, RunOptions::default()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fv: {e}");
            return ExitCode::FAILURE;
        }
    };
    if json {
        println!("{}", run.snapshot.to_json().to_pretty());
        return ExitCode::SUCCESS;
    }
    let snap = &run.snapshot;

    println!(
        "demo: 10 ms, {} flows, each offered {}\n",
        run.flows, run.offered
    );
    println!(
        "{:<12} {:<12} {:<12} {:>10} {:>9} {:>9} {:>9}",
        "class", "theta", "gamma", "forwarded", "borrowed", "dropped", "lent"
    );
    for id in run.tree.class_ids() {
        let name = run
            .tree
            .spec(id)
            .map(|s| format!("{id} ({})", s.name))
            .unwrap_or_else(|| id.to_string());
        let base = format!("fv.class.{id}");
        println!(
            "{:<12} {:<12} {:<12} {:>10} {:>9} {:>9} {:>9}",
            name,
            fmt_bps(gauge_of(snap, &format!("{base}.theta_bps"))),
            fmt_bps(gauge_of(snap, &format!("{base}.gamma_bps"))),
            snap.counter(&format!("{base}.forwarded")),
            snap.counter(&format!("{base}.borrowed")),
            snap.counter(&format!("{base}.dropped")),
            snap.counter(&format!("{base}.lent")),
        );
    }

    let offered = snap.counter("nic.offered");
    let tx = snap.counter("nic.tx_packets");
    println!(
        "\nnic: offered {} tx {} sched-drops {} tail-drops {} rx-drops {} ({:.1}% delivered)",
        offered,
        tx,
        snap.counter("nic.sched_drops"),
        snap.counter("nic.tail_drops"),
        snap.counter("nic.rx_drops"),
        if offered > 0 {
            100.0 * tx as f64 / offered as f64
        } else {
            100.0
        }
    );
    if let Some(h) = snap.histogram("nic.latency_ns") {
        println!(
            "latency: p50 {} ns  p99 {} ns  max {} ns ({} samples)",
            h.p50, h.p99, h.max, h.count
        );
    }
    ExitCode::SUCCESS
}

/// Runs the saturation demo and prints `tc -s qdisc show`-style per-class
/// statistics from the telemetry snapshot.
fn stats(policy: &Policy, json: bool) -> ExitCode {
    let run = match run_workload(policy, RunOptions::default()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fv: {e}");
            return ExitCode::FAILURE;
        }
    };
    if json {
        println!("{}", run.snapshot.to_json().to_pretty());
        return ExitCode::SUCCESS;
    }
    let snap = &run.snapshot;

    let tx_bytes = snap.counter("nic.tx_bits") / 8;
    let dropped = snap.counter("nic.sched_drops")
        + snap.counter("nic.tail_drops")
        + snap.counter("nic.rx_drops");
    println!("qdisc fv 1: dev nic0 root");
    println!(
        " Sent {} bytes {} pkt (dropped {}, overlimits {} requeues 0)",
        tx_bytes,
        snap.counter("nic.tx_packets"),
        dropped,
        snap.counter("nic.sched_drops"),
    );
    for id in run.tree.class_ids() {
        let Some(spec) = run.tree.spec(id) else {
            continue;
        };
        let base = format!("fv.class.{id}");
        let parent = spec
            .parent
            .map(|p| p.to_string())
            .unwrap_or_else(|| "root".into());
        println!(
            "class fv {id} ({}) parent {parent} prio {} theta {} gamma {}",
            spec.name,
            spec.prio,
            fmt_bps(gauge_of(snap, &format!("{base}.theta_bps"))),
            fmt_bps(gauge_of(snap, &format!("{base}.gamma_bps"))),
        );
        let fwd = snap.counter(&format!("{base}.forwarded"));
        let borrowed = snap.counter(&format!("{base}.borrowed"));
        println!(
            " Sent {} bytes {} pkt (dropped {}, borrowed {}, lent {})",
            snap.counter(&format!("{base}.tx_bits")) / 8,
            fwd + borrowed,
            snap.counter(&format!("{base}.dropped")),
            borrowed,
            snap.counter(&format!("{base}.lent")),
        );
    }
    let locks = rank_locks(&run.lock_profile);
    if !locks.is_empty() {
        println!("locks (ranked by wait):");
        for l in &locks {
            println!(
                " lock {}: acquires {} contended {} try-fail {} \
                 wait {} ns hold {} ns contention {}/1000",
                l.id.0,
                l.stats.acquires,
                l.stats.contended,
                l.stats.try_failed,
                l.stats.wait_total.as_nanos(),
                l.stats.hold_total.as_nanos(),
                l.contention_permille(),
            );
        }
    }
    if let Some(audit) = &run.audit {
        println!(
            "audit: {} sampled records (1 in {}), {} meter steps checked, {} violations",
            snap.counter("audit.records"),
            1u64 << audit.shift,
            snap.counter("audit.steps_checked"),
            snap.counter("audit.violations"),
        );
    }
    ExitCode::SUCCESS
}

/// True when `id` or any of its ancestors has a sibling at strictly
/// higher priority (lower `prio` value). Under the saturating check
/// workload every class has demand, so strict priority at any level of
/// the path starves a dominated class regardless of its configured rate
/// — its guarantee is not checkable, only noted.
fn dominated(tree: &SchedulingTree, mut id: flowvalve::label::ClassId) -> bool {
    while let Some(spec) = tree.spec(id) {
        let Some(parent) = spec.parent else { break };
        let outranked = tree.class_ids().into_iter().any(|sib| {
            sib != id
                && tree
                    .spec(sib)
                    .is_some_and(|s| s.parent == Some(parent) && s.prio < spec.prio)
        });
        if outranked {
            return true;
        }
        id = parent;
    }
    false
}

/// Derives rate-conformance SLOs from the compiled tree:
///
/// * every *undominated* leaf with a configured rate must achieve at
///   least 95% of it (the saturating workload always offers more than
///   the guarantee; borrowing may push it above, so no upper band);
/// * every leaf with a ceiling stays under it (+5% tolerance);
/// * no leaf exceeds the root's configured rate (isolation);
/// * the leaves' combined throughput matches the root rate within ±5%
///   (work conservation under saturation).
///
/// Returns the SLOs plus notes for guarantees skipped as uncheckable.
fn conformance_slos(tree: &SchedulingTree) -> (Vec<Slo>, Vec<String>) {
    let parents: std::collections::HashSet<_> = tree
        .class_ids()
        .into_iter()
        .filter_map(|id| tree.spec(id).and_then(|s| s.parent))
        .collect();
    let root_rate = tree
        .class_ids()
        .into_iter()
        .filter_map(|id| tree.spec(id))
        .find(|s| s.parent.is_none())
        .and_then(|s| s.rate);
    let mut slos = Vec::new();
    let mut notes = Vec::new();
    let mut leaf_series = Vec::new();
    for id in tree.class_ids() {
        let Some(spec) = tree.spec(id) else { continue };
        if parents.contains(&id) {
            continue;
        }
        let series = format!("fv.class.{id}.tx_bits");
        leaf_series.push(series.clone());
        if let Some(rate) = spec.rate {
            if dominated(tree, id) {
                notes.push(format!(
                    "note: class {id} ({}) guarantee {rate} unchecked \
                     (starved by a higher-priority sibling under saturation)",
                    spec.name
                ));
            } else {
                slos.push(Slo::RateBetween {
                    name: format!("class {id} ({}) achieves >=95% of {rate}", spec.name),
                    series: series.clone(),
                    min: 0.95 * rate.as_bps() as f64,
                    max: f64::INFINITY,
                });
            }
        }
        match (spec.ceil, root_rate) {
            (Some(ceil), _) => slos.push(Slo::RateBetween {
                name: format!("class {id} ({}) under ceil {ceil}", spec.name),
                series,
                min: 0.0,
                max: 1.05 * ceil.as_bps() as f64,
            }),
            (None, Some(root)) => slos.push(Slo::RateBetween {
                name: format!("class {id} ({}) under root rate {root}", spec.name),
                series,
                min: 0.0,
                max: 1.05 * root.as_bps() as f64,
            }),
            (None, None) => {}
        }
    }
    if let Some(rate) = root_rate {
        let r = rate.as_bps() as f64;
        slos.push(Slo::SumRateBetween {
            name: format!("leaves sum to root rate {rate} within 5%"),
            series: leaf_series,
            min: 0.95 * r,
            max: 1.05 * r,
        });
    }
    (slos, notes)
}

/// Validates the policy, then runs the saturation demo with the sampler
/// attached and evaluates the derived rate-conformance SLOs over the
/// steady-state second half of the run. With `--flight FILE`, an SLO
/// violation additionally dumps a flight-recorder document (attribution
/// profile plus the trace-ring tail) for post-mortem analysis.
fn check(policy: &Policy, flags: &Flags) -> ExitCode {
    let tree = match policy.compile(TreeParams::default()) {
        Ok((tree, rules, default)) => {
            println!(
                "ok: {} classes, {} filters, default {}",
                tree.len(),
                rules.len(),
                default
                    .map(|d| d.leaf().to_string())
                    .unwrap_or_else(|| "none (bypass)".into())
            );
            tree
        }
        Err(e) => {
            eprintln!("fv: {e}");
            return ExitCode::FAILURE;
        }
    };
    if policy.filters.is_empty() {
        println!("conformance: skipped (no filters, nothing to drive)");
        return ExitCode::SUCCESS;
    }
    let (slos, notes) = conformance_slos(&tree);
    for note in &notes {
        println!("{note}");
    }
    if slos.is_empty() {
        println!("conformance: skipped (no class carries a rate or ceil)");
        return ExitCode::SUCCESS;
    }
    let opts = RunOptions {
        sampler: Some(SamplerConfig::default().with_prefix("fv.class.")),
        probe: flags.flight.is_some(),
        ..RunOptions::default()
    };
    let run = match run_workload(policy, opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fv: {e}");
            return ExitCode::FAILURE;
        }
    };
    let sampler = run.sampler.as_ref().expect("check attaches a sampler");
    // Steady state: the second half of the run, past bucket warm-up.
    let window = (Nanos::from_nanos(run.horizon.as_nanos() / 2), run.horizon);
    let report = evaluate(&slos, sampler, &run.snapshot, window);
    print!("{}", report.render());
    if !report.passed() {
        if let (Some(path), Some(p)) = (&flags.flight, &run.probe) {
            let probe = ProbeReport::build(
                &p.attr,
                &run.lock_profile,
                &p.latency,
                &run.snapshot,
                run.horizon,
            );
            let ring = run.registry.ring();
            let events = ring.recent(ring.capacity());
            let doc = flight_doc("slo:conformance", run.horizon, &probe, &events);
            match std::fs::write(path, doc.to_pretty()) {
                Ok(()) => println!(
                    "wrote flight recorder {path} ({} trace events)",
                    events.len()
                ),
                Err(e) => eprintln!("fv: cannot write {path}: {e}"),
            }
        }
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Runs the demo with a deep event ring and exports the span trace as a
/// Chrome-trace JSON document, plus a per-stage latency table.
fn trace(policy: &Policy, flags: &Flags) -> ExitCode {
    let opts = RunOptions {
        ring_capacity: 1 << 17,
        ..RunOptions::default()
    };
    let run = match run_workload(policy, opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fv: {e}");
            return ExitCode::FAILURE;
        }
    };
    let ring = run.registry.ring();
    let events = ring.recent(ring.capacity());
    let doc = chrome_trace(&events);
    let spans = events
        .iter()
        .filter(|e| e.kind.is_span() || e.kind == fv_telemetry::TraceKind::LockWait)
        .count();
    match &flags.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, doc.to_pretty()) {
                eprintln!("fv: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!(
                "wrote {path}: {spans} spans of {} events (open in chrome://tracing)\n",
                events.len()
            );
            print!("{}", latency_table(&run.snapshot));
        }
        None => println!("{}", doc.to_pretty()),
    }
    ExitCode::SUCCESS
}

/// Runs the saturation demo under a fault plan and reports injections,
/// fault drops and post-fault recovery. The `--json` report is fully
/// deterministic: replaying the same script and plan yields an identical
/// document.
fn chaos(policy: &Policy, flags: &Flags) -> ExitCode {
    let Some(plan_path) = &flags.plan else {
        eprintln!("fv: chaos requires --plan <file>");
        return ExitCode::from(2);
    };
    let plan_text = match read_script(plan_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("fv: cannot read {plan_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let plan = match fv_chaos::FaultPlan::parse(&plan_text) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("fv: {plan_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // `--flight` attaches the attribution probes so the dump can say what
    // the pipeline was doing across the fault windows.
    let probes = flags.flight.as_ref().map(|_| ProbeHandles {
        attr: Arc::new(CycleAttr::new(NicConfig::agilio_cx_40g().num_mes)),
        latency: Arc::new(LatencyAttr::new()),
    });
    let report = match fv_chaos::run_chaos_probed(
        policy,
        &plan,
        probes.as_ref().map(|p| p.attr.clone()),
        probes
            .as_ref()
            .map(|p| p.latency.clone() as Arc<dyn fv_telemetry::SpanSink>),
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fv: {e}");
            return ExitCode::FAILURE;
        }
    };
    if flags.json {
        println!("{}", report.to_json().to_pretty());
    } else {
        print!("{}", report.render());
    }
    if let (Some(path), Some(p)) = (&flags.flight, &probes) {
        let probe = ProbeReport::build(
            &p.attr,
            &report.per_lock,
            &p.latency,
            &report.snapshot,
            report.horizon,
        );
        let trigger = format!("chaos:{} fault windows", report.plan.faults.len());
        let doc = flight_doc(&trigger, report.horizon, &probe, &report.snapshot.events);
        match std::fs::write(path, doc.to_pretty()) {
            Ok(()) => println!(
                "wrote flight recorder {path} ({} trace events)",
                report.snapshot.events.len()
            ),
            Err(e) => eprintln!("fv: cannot write {path}: {e}"),
        }
    }
    if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs the demo with the virtual-time sampler attached and prints the
/// counter-delta time series (CSV by default).
fn timeseries(policy: &Policy, flags: &Flags) -> ExitCode {
    let mut cfg = SamplerConfig::default();
    if let Some(us) = flags.interval_us {
        if us == 0 {
            eprintln!("fv: --interval-us must be positive");
            return ExitCode::FAILURE;
        }
        cfg.interval = Nanos::from_micros(us);
    }
    let opts = RunOptions {
        sampler: Some(cfg),
        ..RunOptions::default()
    };
    let run = match run_workload(policy, opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fv: {e}");
            return ExitCode::FAILURE;
        }
    };
    let sampler = run.sampler.as_ref().expect("timeseries attaches a sampler");
    let text = if flags.prom {
        prometheus_text(&run.snapshot)
    } else if flags.jsonl {
        sampler.to_jsonl()
    } else {
        sampler.to_csv()
    };
    match &flags.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &text) {
                eprintln!("fv: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        None => print!("{text}"),
    }
    ExitCode::SUCCESS
}

/// Runs the demo with the attribution probes attached and prints the
/// cycle/contention/latency profile. `--folded` emits flamegraph folded
/// stacks (pipe into `inferno-flamegraph`); `--json` the full document.
/// Attribution is deterministic: the same script yields byte-identical
/// output on every run.
fn profile(policy: &Policy, flags: &Flags) -> ExitCode {
    let opts = RunOptions {
        probe: true,
        ..RunOptions::default()
    };
    let run = match run_workload(policy, opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fv: {e}");
            return ExitCode::FAILURE;
        }
    };
    let p = run.probe.as_ref().expect("profile attaches probes");
    let report = ProbeReport::build(
        &p.attr,
        &run.lock_profile,
        &p.latency,
        &run.snapshot,
        run.horizon,
    );
    let text = if flags.folded {
        report.folded()
    } else if flags.json {
        let mut s = report.to_json().to_pretty();
        s.push('\n');
        s
    } else {
        report.render()
    };
    match &flags.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &text) {
                eprintln!("fv: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        None => print!("{text}"),
    }
    ExitCode::SUCCESS
}

/// Runs the profiled demo and prints the heavy hitters: the flows that
/// moved the most wire bits (named via the demo's flow table) and the
/// most contended locks.
fn top(policy: &Policy) -> ExitCode {
    let opts = RunOptions {
        probe: true,
        ..RunOptions::default()
    };
    let run = match run_workload(policy, opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fv: {e}");
            return ExitCode::FAILURE;
        }
    };
    let p = run.probe.as_ref().expect("top attaches probes");
    let report = ProbeReport::build(
        &p.attr,
        &run.lock_profile,
        &p.latency,
        &run.snapshot,
        run.horizon,
    );
    println!(
        "top: {} spans attributed across {} classes\n",
        p.latency.span_count(),
        report.classes.len()
    );
    println!(
        "{:<5} {:<10} {:>16} {:>8} {:>10}  flow",
        "rank", "class", "wire_bits", "pkts", "err_bits"
    );
    for (i, f) in report.top_flows.iter().enumerate() {
        let class = if f.class == UNATTRIBUTED {
            "unlabeled".to_string()
        } else {
            format!("1:{}", f.class)
        };
        let name = run
            .flow_names
            .iter()
            .find(|(h, _)| *h == f.flow_hash)
            .map(|(_, k)| k.to_string())
            .unwrap_or_else(|| format!("{:016x}", f.flow_hash));
        println!(
            "{:<5} {:<10} {:>16} {:>8} {:>10}  {name}",
            i + 1,
            class,
            f.wire_bits,
            f.packets,
            f.err_bits
        );
    }
    if !report.locks.is_empty() {
        println!("\ntop contended locks:");
        for l in report.locks.iter().take(5) {
            println!(
                " lock {}: wait {} ns hold {} ns contention {}/1000",
                l.id.0,
                l.stats.wait_total.as_nanos(),
                l.stats.hold_total.as_nanos(),
                l.contention_permille(),
            );
        }
    }
    ExitCode::SUCCESS
}

/// Resolves `1:10`, `10` or a class name to a class id of `tree`.
fn resolve_class(tree: &SchedulingTree, s: &str) -> Option<ClassId> {
    let num = s.strip_prefix("1:").unwrap_or(s);
    if let Ok(n) = num.parse::<u16>() {
        let id = ClassId(n);
        if tree.spec(id).is_some() {
            return Some(id);
        }
    }
    tree.class_ids()
        .into_iter()
        .find(|id| tree.spec(*id).is_some_and(|spec| spec.name == s))
}

/// Runs the demo with provenance capture and explains one sampled
/// scheduling decision — the `fv why` layer over the compiled fast path.
fn why(policy: &Policy, flags: &Flags) -> ExitCode {
    if flags.pkt.is_none() && flags.flow.is_none() {
        eprintln!("fv: why requires --pkt <id> or --flow <class>");
        return ExitCode::from(2);
    }
    let run = match run_workload(policy, RunOptions::default()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fv: {e}");
            return ExitCode::FAILURE;
        }
    };
    let audit = run.audit.as_ref().expect("why runs with auditing attached");
    if let Some(pkt) = flags.pkt {
        match audit.ring.get(pkt) {
            Some(rec) => {
                if flags.json {
                    println!("{}", rec.to_json().to_pretty());
                } else {
                    print!("{}", rec.render());
                }
                ExitCode::SUCCESS
            }
            None => {
                eprintln!(
                    "fv: no provenance for pkt {pkt}: not sampled (1 in {} by \
                     packet id), unlabeled, or evicted from the ring",
                    1u64 << audit.shift
                );
                ExitCode::FAILURE
            }
        }
    } else {
        let label = flags.flow.as_deref().expect("checked above");
        let Some(id) = resolve_class(&run.tree, label) else {
            eprintln!("fv: no class named {label}");
            return ExitCode::FAILURE;
        };
        let recs: Vec<ProvenanceRecord> = audit
            .ring
            .records()
            .into_iter()
            .filter(|r| r.leaf == id.0)
            .collect();
        if recs.is_empty() {
            eprintln!("fv: no sampled decisions for class {id}");
            return ExitCode::FAILURE;
        }
        if flags.json {
            println!(
                "{}",
                JsonValue::arr(recs.iter().map(|r| r.to_json())).to_pretty()
            );
        } else {
            let (mut fwd, mut bor, mut dropped) = (0u64, 0u64, 0u64);
            for r in &recs {
                match r.verdict {
                    AuditVerdict::Forward => fwd += 1,
                    AuditVerdict::Borrowed(_) => bor += 1,
                    AuditVerdict::Drop => dropped += 1,
                }
            }
            println!(
                "class {id}: {} sampled decisions ({fwd} forwarded, {bor} \
                 borrowed, {dropped} dropped); most recent:",
                recs.len()
            );
            let last = recs
                .iter()
                .max_by_key(|r| (r.at, r.pkt_id))
                .expect("recs is non-empty");
            print!("{}", last.render());
        }
        ExitCode::SUCCESS
    }
}

/// Runs the demo (or a faulted run under `--plan`) with provenance
/// capture and folds the records plus the end-of-run bucket slab through
/// the token-conservation ledger. Exits 1 on any conservation break;
/// `--inject-mischarge` corrupts one record first as a gate self-test.
fn audit_cmd(policy: &Policy, flags: &Flags) -> ExitCode {
    // Collect (records, slab) plus whatever a flight dump would need.
    struct Collected {
        records: Vec<ProvenanceRecord>,
        slab: Vec<BucketSnapshot>,
        horizon: Nanos,
        probe: Option<ProbeReport>,
        events: Vec<fv_telemetry::TraceEvent>,
    }
    let collected = if let Some(plan_path) = &flags.plan {
        let plan_text = match read_script(plan_path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("fv: cannot read {plan_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let plan = match fv_chaos::FaultPlan::parse(&plan_text) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("fv: {plan_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let probes = flags.flight.as_ref().map(|_| ProbeHandles {
            attr: Arc::new(CycleAttr::new(NicConfig::agilio_cx_40g().num_mes)),
            latency: Arc::new(LatencyAttr::new()),
        });
        let ring = Arc::new(ProvenanceRing::sampled(AUDIT_RING_CAPACITY, AUDIT_SHIFT));
        let report = match fv_chaos::run_chaos_audited(
            policy,
            &plan,
            probes.as_ref().map(|p| p.attr.clone()),
            probes
                .as_ref()
                .map(|p| p.latency.clone() as Arc<dyn fv_telemetry::SpanSink>),
            Some((ring.clone(), Sampler::one_in_pow2(AUDIT_SHIFT))),
        ) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("fv: {e}");
                return ExitCode::FAILURE;
            }
        };
        let probe = probes.as_ref().map(|p| {
            ProbeReport::build(
                &p.attr,
                &report.per_lock,
                &p.latency,
                &report.snapshot,
                report.horizon,
            )
        });
        Collected {
            records: ring.records(),
            slab: report.slab.clone(),
            horizon: report.horizon,
            probe,
            events: report.snapshot.events.clone(),
        }
    } else {
        let opts = RunOptions {
            probe: flags.flight.is_some(),
            ..RunOptions::default()
        };
        let run = match run_workload(policy, opts) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("fv: {e}");
                return ExitCode::FAILURE;
            }
        };
        let audit = run.audit.as_ref().expect("audit runs with capture on");
        let probe = run.probe.as_ref().map(|p| {
            ProbeReport::build(
                &p.attr,
                &run.lock_profile,
                &p.latency,
                &run.snapshot,
                run.horizon,
            )
        });
        let ring = run.registry.ring();
        Collected {
            records: audit.ring.records(),
            slab: audit.slab.clone(),
            horizon: run.horizon,
            probe,
            events: ring.recent(ring.capacity()),
        }
    };
    let mut records = collected.records;
    if flags.inject_mischarge {
        // Gate self-test: move one green meter step's after-level by one
        // token. The ledger must flag exactly this as a mischarge.
        let corrupted = records
            .iter_mut()
            .flat_map(|r| r.steps.iter_mut())
            .find(|s| s.green && s.kind != StepKind::Update)
            .map(|s| s.after += 1)
            .is_some();
        if !corrupted {
            eprintln!("fv: --inject-mischarge found no green meter step to corrupt");
            return ExitCode::FAILURE;
        }
    }
    let report = Ledger::audit(&records, &collected.slab);
    if flags.json {
        println!("{}", report.to_json().to_pretty());
    } else {
        print!("{}", report.render());
    }
    if report.ok() {
        return ExitCode::SUCCESS;
    }
    if let (Some(path), Some(probe)) = (&flags.flight, &collected.probe) {
        let trigger = format!("audit:{} conservation violations", report.violations.len());
        let doc = flight_doc(&trigger, collected.horizon, probe, &collected.events);
        match std::fs::write(path, doc.to_pretty()) {
            Ok(()) => println!(
                "wrote flight recorder {path} ({} trace events)",
                collected.events.len()
            ),
            Err(e) => eprintln!("fv: cannot write {path}: {e}"),
        }
    }
    ExitCode::FAILURE
}

/// Compares two `BENCH_*.json` documents and fails when any shared bench
/// regressed past the tolerance (default 10%) or a baseline entry is
/// missing from the fresh run — CI's perf-regression gate.
fn bench_diff(new_path: &str, base_path: &str, flags: &Flags) -> ExitCode {
    let read_doc = |path: &str| -> Result<JsonValue, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        JsonValue::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (new_doc, base_doc) = match (read_doc(new_path), read_doc(base_path)) {
        (Ok(n), Ok(b)) => (n, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("fv: {e}");
            return ExitCode::FAILURE;
        }
    };
    let tolerance = flags.tolerance_pct.unwrap_or(10.0);
    let report = match diff_docs(&new_doc, &base_doc, tolerance, &flags.only) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fv: {e}");
            return ExitCode::FAILURE;
        }
    };
    if flags.json {
        println!("{}", report.to_json().to_pretty());
    } else {
        print!("{}", report.render());
    }
    if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
