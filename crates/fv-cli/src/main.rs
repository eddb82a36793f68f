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
//! ```
//!
//! `fv check` also accepts `--flight FILE`: on SLO violation it dumps the
//! attribution profile plus the trace-ring tail for post-mortem analysis.
//!
//! Scripts use the `tc`-style dialect documented in
//! `flowvalve::frontend`; `-` reads from stdin. Valued flags accept
//! `--flag value` and `--flag=value`; an unknown flag, a missing value and
//! an unparsable number each exit 2 with the flag named above the usage
//! line.
//!
//! A reader that closes the pipe early (`fv top … | head -8`) ends `fv` the
//! way it ends `yes`: killed by `SIGPIPE`, silently, which a shell reports
//! as status 141.

use std::io::Read;
use std::process::ExitCode;
use std::sync::Arc;

use flowvalve::frontend::Policy;
use flowvalve::label::ClassId;
use flowvalve::tree::{SchedulingTree, TreeParams};
use fv_audit::{AuditVerdict, Ledger, ProvenanceRecord, StepKind};
use fv_chaos::{run_chaos, saturate, Attachments, FaultPlan, Run};
use fv_probe::{flight_doc, rank_locks, LatencyAttr, ProbeReport, UNATTRIBUTED};
use fv_scope::{chrome_trace, evaluate, latency_table, prometheus_text, SamplerConfig, Slo};
use fv_telemetry::{JsonValue, MetricValue, Snapshot, SpanSink, ToJson, TraceEvent};
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
         [--pkt ID] [--flow CLASS] [--inject-mischarge]"
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
    /// Packet id `fv why` explains.
    pkt: Option<u64>,
    /// Class (`1:10`, `10` or a class name) `fv why` explains.
    flow: Option<String>,
    /// `fv audit` self-test: corrupt one provenance record before the
    /// ledger runs, proving a mischarge is caught (must exit 1).
    inject_mischarge: bool,
}

/// What a subcommand returns: its exit code, or the message `main` prints
/// as `fv: <message>` before exiting 1.
type CmdResult = Result<ExitCode, String>;

/// Puts `SIGPIPE` back to its default action. The Rust runtime ignores the
/// signal, which turns a closed stdout into an `EPIPE` that `println!`
/// panics on ("failed printing to stdout", with a backtrace); a closed
/// stdout is the reader's decision, not a bug in `fv`, so every write to
/// it ends the process quietly instead — here, once, for all of them.
#[cfg(unix)]
fn die_quietly_on_closed_stdout() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGPIPE: i32 = 13;
    const SIG_DFL: usize = 0;
    // SAFETY: `signal` is the C library's, linked into every unix Rust
    // binary; the arguments are a valid signal number and the default
    // disposition, and no other thread exists yet to race the change.
    unsafe {
        signal(SIGPIPE, SIG_DFL);
    }
}

#[cfg(not(unix))]
fn die_quietly_on_closed_stdout() {}

fn main() -> ExitCode {
    die_quietly_on_closed_stdout();
    run().unwrap_or_else(|e| {
        eprintln!("fv: {e}");
        ExitCode::FAILURE
    })
}

/// Splits the command line into flags and positionals. A valued flag
/// takes its value after `=` or from the next argument. `Err` names the
/// flag that is unknown, lacks its value or carries an unparsable number.
fn parse_args(args: &[String]) -> Result<(Flags, Vec<&str>), String> {
    let mut flags = Flags::default();
    let mut positional: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            positional.push(arg);
            continue;
        }
        let (name, inline) = match arg.split_once('=') {
            Some((name, value)) => (name, Some(value)),
            None => (arg.as_str(), None),
        };
        let mut value = || {
            inline
                .or_else(|| it.next().map(String::as_str))
                .ok_or_else(|| format!("{name} needs a value"))
        };
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{name}: `{v}` is not a non-negative integer"))
        };
        match (name, inline) {
            ("--out", _) => flags.out = Some(value()?.to_owned()),
            ("--interval-us", _) => flags.interval_us = Some(number(value()?)?),
            ("--plan", _) => flags.plan = Some(value()?.to_owned()),
            ("--flight", _) => flags.flight = Some(value()?.to_owned()),
            ("--pkt", _) => flags.pkt = Some(number(value()?)?),
            ("--flow", _) => flags.flow = Some(value()?.to_owned()),
            ("--json", None) => flags.json = true,
            ("--csv", None) => flags.csv = true,
            ("--jsonl", None) => flags.jsonl = true,
            ("--prom", None) => flags.prom = true,
            ("--folded", None) => flags.folded = true,
            ("--inject-mischarge", None) => flags.inject_mischarge = true,
            _ => return Err(format!("unknown flag {arg}")),
        }
    }
    Ok((flags, positional))
}

fn run() -> CmdResult {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (flags, positional) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("fv: {msg}");
            return Ok(usage());
        }
    };
    let (cmd, path) = match positional.as_slice() {
        [cmd, path] => (*cmd, *path),
        _ => return Ok(usage()),
    };
    let script = read_script(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let policy = Policy::parse(&script).map_err(|e| format!("parse error: {e}"))?;

    match cmd {
        "check" => check(&policy, &flags),
        "show" => policy
            .compile(TreeParams::default())
            .map(|(tree, _, _)| {
                print!("{}", tree.render());
                ExitCode::SUCCESS
            })
            .map_err(|e| e.to_string()),
        "demo" => demo(&policy, flags.json),
        "stats" => stats(&policy, flags.json),
        "trace" => trace(&policy, &flags),
        "timeseries" => timeseries(&policy, &flags),
        "chaos" => chaos(&policy, &flags),
        "profile" => profile(&policy, &flags),
        "top" => top(&policy),
        "why" => why(&policy, &flags),
        "audit" => audit_cmd(&policy, &flags),
        _ => Ok(usage()),
    }
}

/// Seed of every clean `fv` run.
const SEED: u64 = 1;

/// The clean saturation run behind every reporting subcommand.
fn run_demo(policy: &Policy, attach: Attachments) -> Result<Run, String> {
    saturate(policy, SEED, attach).map_err(|e| e.to_string())
}

/// Attachments with the attribution probes on when `on`; the latency sink
/// is shared with the run, the handle stays here for the report.
fn probes(on: bool, attach: Attachments) -> (Option<Arc<LatencyAttr>>, Attachments) {
    let latency = on.then(|| Arc::new(LatencyAttr::new()));
    let probe = latency.clone().map(|l| l as Arc<dyn SpanSink>);
    (latency, Attachments { probe, ..attach })
}

/// The attribution report of a run that carried [`probes`].
fn probe_report(run: &Run, latency: &LatencyAttr) -> ProbeReport {
    let cycles = run.cycles.as_ref().expect("run carried the probes");
    ProbeReport::build(
        cycles,
        &run.lock_profile,
        latency,
        &run.snapshot,
        run.horizon,
    )
}

/// Writes a flight-recorder document: the attribution profile plus
/// `events`. A write failure is reported but does not change the verdict.
fn write_flight(
    path: &str,
    trigger: &str,
    run: &Run,
    latency: &LatencyAttr,
    events: &[TraceEvent],
) {
    let doc = flight_doc(trigger, run.horizon, &probe_report(run, latency), events);
    match std::fs::write(path, doc.to_pretty()) {
        Ok(()) => println!(
            "wrote flight recorder {path} ({} trace events)",
            events.len()
        ),
        Err(e) => eprintln!("fv: cannot write {path}: {e}"),
    }
}

/// Every event still in the run's trace ring, oldest first.
fn ring_events(run: &Run) -> Vec<TraceEvent> {
    let ring = run.registry.ring();
    ring.recent(ring.capacity())
}

fn write_out(path: &str, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Writes `text` to `--out FILE`, or to stdout without one.
fn emit(out: &Option<String>, text: &str) -> Result<(), String> {
    match out {
        Some(path) => write_out(path, text),
        None => {
            print!("{text}");
            Ok(())
        }
    }
}

/// The demo with the attribution probes on, and the report they fold to.
fn run_profiled(policy: &Policy) -> Result<(Run, Arc<LatencyAttr>, ProbeReport), String> {
    let (latency, attach) = probes(true, Attachments::default());
    let latency = latency.expect("probes were switched on");
    let run = run_demo(policy, attach)?;
    let report = probe_report(&run, &latency);
    Ok((run, latency, report))
}

/// Reads and parses the `--plan` file.
fn load_plan(path: &str) -> Result<FaultPlan, String> {
    let text = read_script(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    FaultPlan::parse(&text).map_err(|e| format!("{path}: {e}"))
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
fn demo(policy: &Policy, json: bool) -> CmdResult {
    let run = run_demo(policy, Attachments::default())?;
    if json {
        println!("{}", run.snapshot.to_json().to_pretty());
        return Ok(ExitCode::SUCCESS);
    }
    let snap = &run.snapshot;

    println!(
        "demo: 10 ms, {} flows, each offered {}\n",
        run.flow_names.len(),
        run.offered
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
    Ok(ExitCode::SUCCESS)
}

/// Runs the saturation demo and prints `tc -s qdisc show`-style per-class
/// statistics from the telemetry snapshot.
fn stats(policy: &Policy, json: bool) -> CmdResult {
    let run = run_demo(policy, Attachments::default())?;
    if json {
        println!("{}", run.snapshot.to_json().to_pretty());
        return Ok(ExitCode::SUCCESS);
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
    if run.audit.is_some() {
        println!(
            "audit: {} sampled records (1 in {}), {} meter steps checked, {} violations",
            snap.counter("audit.records"),
            snap.sample_period(),
            snap.counter("audit.steps_checked"),
            snap.counter("audit.violations"),
        );
    }
    Ok(ExitCode::SUCCESS)
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
fn check(policy: &Policy, flags: &Flags) -> CmdResult {
    let (tree, rules, default) = policy
        .compile(TreeParams::default())
        .map_err(|e| e.to_string())?;
    println!(
        "ok: {} classes, {} filters, default {}",
        tree.len(),
        rules.len(),
        default
            .map(|d| d.leaf().to_string())
            .unwrap_or_else(|| "none (bypass)".into())
    );
    if policy.filters.is_empty() {
        println!("conformance: skipped (no filters, nothing to drive)");
        return Ok(ExitCode::SUCCESS);
    }
    let (slos, notes) = conformance_slos(&tree);
    for note in &notes {
        println!("{note}");
    }
    if slos.is_empty() {
        println!("conformance: skipped (no class carries a rate or ceil)");
        return Ok(ExitCode::SUCCESS);
    }
    let (latency, attach) = probes(
        flags.flight.is_some(),
        Attachments {
            sampler: Some(SamplerConfig::default().with_prefix("fv.class.")),
            ..Attachments::default()
        },
    );
    let run = run_demo(policy, attach)?;
    let sampler = run.sampler.as_ref().expect("check attaches a sampler");
    // Steady state: the second half of the run, past bucket warm-up.
    let window = (Nanos::from_nanos(run.horizon.as_nanos() / 2), run.horizon);
    let report = evaluate(&slos, sampler, window);
    print!("{}", report.render());
    if report.passed() {
        return Ok(ExitCode::SUCCESS);
    }
    if let (Some(path), Some(latency)) = (&flags.flight, &latency) {
        write_flight(path, "slo:conformance", &run, latency, &ring_events(&run));
    }
    Ok(ExitCode::FAILURE)
}

/// Runs the demo with a deep event ring and exports the span trace as a
/// Chrome-trace JSON document, plus a per-stage latency table.
fn trace(policy: &Policy, flags: &Flags) -> CmdResult {
    let attach = Attachments {
        ring_capacity: 1 << 17,
        ..Attachments::default()
    };
    let run = run_demo(policy, attach)?;
    let events = ring_events(&run);
    let doc = chrome_trace(&events);
    let spans = events
        .iter()
        .filter(|e| e.kind.is_span() || e.kind == fv_telemetry::TraceKind::LockWait)
        .count();
    match &flags.out {
        Some(path) => {
            write_out(path, &doc.to_pretty())?;
            println!(
                "wrote {path}: {spans} spans of {} events, per-packet records \
                 sampled 1 in {} (open in chrome://tracing)\n",
                events.len(),
                run.snapshot.sample_period()
            );
            print!("{}", latency_table(&run.snapshot));
        }
        None => println!("{}", doc.to_pretty()),
    }
    Ok(ExitCode::SUCCESS)
}

/// Runs the saturation demo under a fault plan and reports injections,
/// fault drops and post-fault recovery. The `--json` report is fully
/// deterministic: replaying the same script and plan yields an identical
/// document.
fn chaos(policy: &Policy, flags: &Flags) -> CmdResult {
    let Some(plan_path) = &flags.plan else {
        eprintln!("fv: chaos requires --plan <file>");
        return Ok(ExitCode::from(2));
    };
    let plan = load_plan(plan_path)?;
    // `--flight` attaches the attribution probes so the dump can say what
    // the pipeline was doing across the fault windows.
    let (latency, attach) = probes(
        flags.flight.is_some(),
        Attachments {
            audit: false,
            ..Attachments::default()
        },
    );
    let report = run_chaos(policy, &plan, attach).map_err(|e| e.to_string())?;
    if flags.json {
        println!("{}", report.to_json().to_pretty());
    } else {
        print!("{}", report.render());
    }
    if let (Some(path), Some(latency)) = (&flags.flight, &latency) {
        let trigger = format!("chaos:{} fault windows", plan.faults.len());
        let events = &report.run.snapshot.events;
        write_flight(path, &trigger, &report.run, latency, events);
    }
    Ok(if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs the demo with the virtual-time sampler attached and prints the
/// counter-delta time series (CSV by default).
fn timeseries(policy: &Policy, flags: &Flags) -> CmdResult {
    let mut cfg = SamplerConfig::default();
    if let Some(us) = flags.interval_us {
        let ns = us
            .checked_mul(1_000)
            .filter(|&ns| ns > 0)
            .ok_or_else(|| format!("--interval-us must be between 1 and {}", u64::MAX / 1_000))?;
        cfg.interval = Nanos::from_nanos(ns);
    }
    let attach = Attachments {
        sampler: Some(cfg),
        ..Attachments::default()
    };
    let run = run_demo(policy, attach)?;
    let sampler = run.sampler.as_ref().expect("timeseries attaches a sampler");
    let text = if flags.prom {
        prometheus_text(&run.snapshot)
    } else if flags.jsonl {
        sampler.to_jsonl()
    } else {
        sampler.to_csv()
    };
    emit(&flags.out, &text)?;
    Ok(ExitCode::SUCCESS)
}

/// Runs the demo with the attribution probes attached and prints the
/// cycle/contention/latency profile. `--folded` emits flamegraph folded
/// stacks (pipe into `inferno-flamegraph`); `--json` the full document.
/// Attribution is deterministic: the same script yields byte-identical
/// output on every run.
fn profile(policy: &Policy, flags: &Flags) -> CmdResult {
    let (_, _, report) = run_profiled(policy)?;
    let text = if flags.folded {
        report.folded()
    } else if flags.json {
        let mut s = report.to_json().to_pretty();
        s.push('\n');
        s
    } else {
        report.render()
    };
    emit(&flags.out, &text)?;
    Ok(ExitCode::SUCCESS)
}

/// Runs the profiled demo and prints the heavy hitters: the flows that
/// moved the most wire bits (named via the demo's flow table) and the
/// most contended locks.
fn top(policy: &Policy) -> CmdResult {
    let (run, latency, report) = run_profiled(policy)?;
    println!(
        "top: {} spans of sampled packets (1 in {}) attributed across {} classes; \
         flow volumes count sampled packets\n",
        latency.span_count(),
        report.sample_period,
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
    Ok(ExitCode::SUCCESS)
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
fn why(policy: &Policy, flags: &Flags) -> CmdResult {
    if flags.pkt.is_none() && flags.flow.is_none() {
        eprintln!("fv: why requires --pkt <id> or --flow <class>");
        return Ok(ExitCode::from(2));
    }
    let run = run_demo(policy, Attachments::default())?;
    let audit = run.audit.as_ref().expect("why runs with auditing attached");
    if let Some(pkt) = flags.pkt {
        let rec = audit.ring.get(pkt).ok_or_else(|| {
            format!(
                "no provenance for pkt {pkt}: not sampled (1 in {} by \
                 packet id), unlabeled, or evicted from the ring",
                run.snapshot.sample_period()
            )
        })?;
        if flags.json {
            println!("{}", rec.to_json().to_pretty());
        } else {
            print!("{}", rec.render());
        }
    } else {
        let label = flags.flow.as_deref().expect("checked above");
        let id =
            resolve_class(&run.tree, label).ok_or_else(|| format!("no class named {label}"))?;
        let recs: Vec<ProvenanceRecord> = audit
            .ring
            .records()
            .into_iter()
            .filter(|r| r.leaf == id.0)
            .collect();
        if recs.is_empty() {
            return Err(format!("no sampled decisions for class {id}"));
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
                "class {id}: {} sampled decisions (1 in {}; {fwd} forwarded, {bor} \
                 borrowed, {dropped} dropped); most recent:",
                recs.len(),
                run.snapshot.sample_period()
            );
            let last = recs
                .iter()
                .max_by_key(|r| (r.at, r.pkt_id))
                .expect("recs is non-empty");
            print!("{}", last.render());
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Runs the demo (or a faulted run under `--plan`) with provenance
/// capture and folds the records plus the end-of-run bucket slab through
/// the token-conservation ledger. Exits 1 on any conservation break;
/// `--inject-mischarge` corrupts one record first as a gate self-test.
fn audit_cmd(policy: &Policy, flags: &Flags) -> CmdResult {
    let (latency, attach) = probes(flags.flight.is_some(), Attachments::default());
    let run = match &flags.plan {
        Some(path) => {
            run_chaos(policy, &load_plan(path)?, attach)
                .map_err(|e| e.to_string())?
                .run
        }
        None => run_demo(policy, attach)?,
    };
    let audit = run.audit.as_ref().expect("audit runs with capture on");
    let mut records = audit.ring.records();
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
            return Err("--inject-mischarge found no green meter step to corrupt".into());
        }
    }
    let report = Ledger::audit(&records, &audit.slab);
    if flags.json {
        println!("{}", report.to_json().to_pretty());
    } else {
        println!(
            "provenance sampled 1 packet in {}",
            run.snapshot.sample_period()
        );
        print!("{}", report.render());
    }
    if report.ok() {
        return Ok(ExitCode::SUCCESS);
    }
    if let (Some(path), Some(latency)) = (&flags.flight, &latency) {
        let trigger = format!("audit:{} conservation violations", report.violations.len());
        write_flight(path, &trigger, &run, latency, &ring_events(&run));
    }
    Ok(ExitCode::FAILURE)
}
