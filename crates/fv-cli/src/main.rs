//! `fv` — the FlowValve command-line front end.
//!
//! `fv <subcommand> <script.fv|-> [flags]`. Run `fv` alone for the usage:
//! every subcommand with what it does and the flags it reads, printed
//! from the `COMMANDS` table that dispatch reads too.
//!
//! Scripts use the `tc`-style dialect documented in
//! `flowvalve::frontend`; `-` reads from stdin. Flags may come anywhere on
//! the line; valued flags accept `--flag value` and `--flag=value`, once
//! each. An unknown flag, a flag the subcommand does not read, a missing
//! value, an unparsable number, a valued flag given twice and a second
//! output format each exit 2 with the flag named above the usage line.
//!
//! A reader that closes the pipe early (`fv top … | head -8`) ends `fv` the
//! way it ends `yes`: killed by `SIGPIPE`, silently, which a shell reports
//! as status 141.

use std::io::Read;
use std::process::ExitCode;

use flowvalve::frontend::Policy;
use flowvalve::label::ClassId;
use flowvalve::tree::{SchedulingTree, TreeParams};
use fv_audit::{AuditVerdict, Ledger, ProvenanceRecord, StepKind};
use fv_chaos::{run_chaos, saturate, FaultPlan, Run};
use fv_probe::{flight_doc, UNATTRIBUTED};
use fv_scope::{chrome_trace, evaluate, latency_table, prometheus_text, SamplerConfig, Slo};
use fv_telemetry::{JsonValue, MetricValue, Snapshot, ToJson, TraceEvent};
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

/// Every flag `fv` knows, with the name of its value; `None` marks a
/// switch.
const FLAGS: &[(&str, Option<&str>)] = &[
    ("--json", None),
    ("--csv", None),
    ("--jsonl", None),
    ("--prom", None),
    ("--folded", None),
    ("--inject-mischarge", None),
    ("--out", Some("FILE")),
    ("--interval-us", Some("N")),
    ("--plan", Some("FILE")),
    ("--flight", Some("FILE")),
    ("--pkt", Some("ID")),
    ("--flow", Some("CLASS")),
];

/// The output formats: alternatives, so a command line carries one at most.
const FORMATS: [&str; 5] = ["--json", "--csv", "--jsonl", "--prom", "--folded"];

/// What runs a subcommand.
type Subcommand = fn(&Policy, &Flags) -> CmdResult;

/// Every subcommand: its name, what it does (its line of the usage), the
/// flags it reads (any other exits 2) and its function. Dispatch and the
/// usage text both read this table.
const COMMANDS: &[(&str, &str, &[&str], Subcommand)] = &[
    (
        "check",
        "parse the script, run the demo and check its rate SLOs",
        &["--flight"],
        check,
    ),
    ("show", "print the compiled scheduling tree", &[], show),
    (
        "demo",
        "run the 10 ms saturation demo: per-class rates and verdicts",
        &["--json"],
        demo,
    ),
    (
        "stats",
        "run the demo: `tc -s qdisc show`-style statistics",
        &["--json"],
        stats,
    ),
    (
        "trace",
        "run the demo: its span trace as Chrome-trace JSON",
        &["--out"],
        trace,
    ),
    (
        "timeseries",
        "run the demo: its sampler's counter-delta time series",
        &["--csv", "--jsonl", "--prom", "--interval-us", "--out"],
        timeseries,
    ),
    (
        "chaos",
        "run the demo under the plan's faults and judge the recovery",
        &["--plan", "--json", "--flight"],
        chaos,
    ),
    (
        "profile",
        "run the demo: its cycle, contention and latency profile",
        &["--folded", "--json", "--out"],
        profile,
    ),
    (
        "top",
        "run the demo: the heaviest flows and the most contended locks",
        &[],
        top,
    ),
    (
        "why",
        "run the demo and explain one sampled scheduling decision",
        &["--pkt", "--flow", "--json"],
        why,
    ),
    (
        "audit",
        "audit the run's token conservation; exit status 1 on a break",
        &["--plan", "--json", "--flight", "--inject-mischarge"],
        audit_cmd,
    ),
];

fn usage() -> ExitCode {
    eprintln!("usage: fv <subcommand> <script.fv|-> [flags]");
    for &(name, what, flags, _) in COMMANDS {
        eprintln!("  {name:<11} {what}");
        let mut line = String::new();
        for &flag in flags {
            match FLAGS.iter().find(|(name, _)| *name == flag) {
                Some((_, Some(value))) => line.push_str(&format!(" [{flag} {value}]")),
                _ => line.push_str(&format!(" [{flag}]")),
            }
        }
        if !line.is_empty() {
            eprintln!("  {:<11}{line}", "");
        }
    }
    ExitCode::from(2)
}

/// The flags of one command line.
#[derive(Default)]
struct Flags {
    /// The output format given (one of [`FORMATS`]), if any.
    format: Option<&'static str>,
    out: Option<String>,
    interval_us: Option<u64>,
    plan: Option<String>,
    /// Flight-recorder output path (`fv check` / `fv chaos` / `fv audit`).
    flight: Option<String>,
    /// Packet id `fv why` explains.
    pkt: Option<u64>,
    /// Class (`1:10`, `10` or a class name) `fv why` explains.
    flow: Option<String>,
    /// `fv audit` self-test: corrupt one provenance record before the
    /// ledger runs, proving a mischarge is caught (must exit 1).
    inject_mischarge: bool,
}

impl Flags {
    /// Records flag `name` of [`FLAGS`] with the value that followed it.
    /// `Err` when a valued flag has no value, an unparsable one or one
    /// already, and on a second output format.
    fn set(&mut self, name: &'static str, value: Option<&str>) -> Result<(), String> {
        if FORMATS.contains(&name) {
            return match self.format.replace(name) {
                Some(first) if first != name => {
                    Err(format!("{first} and {name}: one output format at a time"))
                }
                _ => Ok(()),
            };
        }
        if name == "--inject-mischarge" {
            self.inject_mischarge = true;
            return Ok(());
        }
        let value = value.ok_or_else(|| format!("{name} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{name}: `{value}` is not a non-negative integer"))
        };
        match name {
            "--out" => once(&mut self.out, name, value.to_owned()),
            "--interval-us" => once(&mut self.interval_us, name, number()?),
            "--plan" => once(&mut self.plan, name, value.to_owned()),
            "--flight" => once(&mut self.flight, name, value.to_owned()),
            "--pkt" => once(&mut self.pkt, name, number()?),
            "--flow" => once(&mut self.flow, name, value.to_owned()),
            _ => unreachable!("{name} is a flag of FLAGS"),
        }
    }
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

/// Splits the command line into the subcommand, the script path and the
/// flags, which may come anywhere. A valued flag takes its value after `=`
/// or from the next argument. `Err` names an unknown flag, a flag the
/// subcommand does not read, and whatever [`Flags::set`] refuses, or says
/// the positionals are not one subcommand and one script.
fn parse_args(args: &[String]) -> Result<(Subcommand, &str, Flags), String> {
    let mut given = Vec::new();
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            positional.push(arg.as_str());
            continue;
        }
        let (name, inline) = match arg.split_once('=') {
            Some((name, value)) => (name, Some(value)),
            None => (arg.as_str(), None),
        };
        // A switch takes no value: `--json=1` is not a flag `fv` knows.
        let known = FLAGS
            .iter()
            .find(|(flag, value)| *flag == name && (value.is_some() || inline.is_none()));
        let Some(&(name, valued)) = known else {
            return Err(format!("unknown flag {arg}"));
        };
        let value = valued.and_then(|_| inline.or_else(|| it.next().map(String::as_str)));
        given.push((name, value));
    }
    let [cmd, path] = positional[..] else {
        return Err("expected a subcommand and a script".into());
    };
    let &(_, _, reads, subcommand) = COMMANDS
        .iter()
        .find(|(name, ..)| *name == cmd)
        .ok_or_else(|| format!("unknown subcommand {cmd}"))?;
    let mut flags = Flags::default();
    for (name, value) in given {
        if !reads.contains(&name) {
            return Err(format!("{cmd} does not read {name}"));
        }
        flags.set(name, value)?;
    }
    Ok((subcommand, path, flags))
}

/// Fills valued flag `name`'s slot; `Err` when the flag was given before.
fn once<T>(slot: &mut Option<T>, name: &str, value: T) -> Result<(), String> {
    match slot.replace(value) {
        None => Ok(()),
        Some(_) => Err(format!("{name} given twice")),
    }
}

fn run() -> CmdResult {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (subcommand, path, flags) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("fv: {msg}");
            return Ok(usage());
        }
    };
    let script = read_script(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let policy = Policy::parse(&script).map_err(|e| format!("parse error: {e}"))?;
    subcommand(&policy, &flags)
}

/// Seed of every clean `fv` run.
const SEED: u64 = 1;

/// The clean saturation run behind every reporting subcommand but
/// `timeseries`, which picks its own sampler frames.
fn run_demo(policy: &Policy) -> Result<Run, String> {
    saturate(policy, SEED, SamplerConfig::default()).map_err(|e| e.to_string())
}

/// Writes a flight-recorder document: the run's attribution profile plus
/// every event of its trace ring, which holds the whole run. A write
/// failure is reported but does not change the verdict.
fn write_flight(path: &str, trigger: &str, run: &Run) {
    let events = ring_events(run);
    let doc = flight_doc(trigger, run.horizon, &run.probe, &events);
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

/// Prints the scheduling tree the policy compiles to.
fn show(policy: &Policy, _: &Flags) -> CmdResult {
    let (tree, _, _) = policy
        .compile(TreeParams::default())
        .map_err(|e| e.to_string())?;
    print!("{}", tree.render());
    Ok(ExitCode::SUCCESS)
}

/// Runs the saturation demo and prints per-class verdicts, all routed
/// through the telemetry snapshot (`--json` dumps the whole snapshot).
fn demo(policy: &Policy, flags: &Flags) -> CmdResult {
    let run = run_demo(policy)?;
    if flags.format == Some("--json") {
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
fn stats(policy: &Policy, flags: &Flags) -> CmdResult {
    let run = run_demo(policy)?;
    if flags.format == Some("--json") {
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
    if !run.probe.locks.is_empty() {
        println!("locks (ranked by wait):");
        for l in &run.probe.locks {
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
    println!(
        "audit: {} sampled records (1 in {}), {} meter steps checked, {} violations",
        snap.counter("audit.records"),
        snap.sample_period(),
        snap.counter("audit.steps_checked"),
        snap.counter("audit.violations"),
    );
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
    let root_rate = tree.root_rate();
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
        let (name, cap) = match spec.ceil {
            Some(ceil) => (
                format!("class {id} ({}) under ceil {ceil}", spec.name),
                ceil,
            ),
            None => (
                format!("class {id} ({}) under root rate {root_rate}", spec.name),
                root_rate,
            ),
        };
        slos.push(Slo::RateBetween {
            name,
            series,
            min: 0.0,
            max: 1.05 * cap.as_bps() as f64,
        });
    }
    let r = root_rate.as_bps() as f64;
    slos.push(Slo::SumRateBetween {
        name: format!("leaves sum to root rate {root_rate} within 5%"),
        series: leaf_series,
        min: 0.95 * r,
        max: 1.05 * r,
    });
    (slos, notes)
}

/// Validates the policy, then runs the saturation demo and evaluates the
/// derived rate-conformance SLOs on its sampler over the steady-state
/// second half of the run. With `--flight FILE`, an SLO violation
/// additionally dumps a flight-recorder document (attribution profile plus
/// the trace ring) for post-mortem analysis.
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
    let run = run_demo(policy)?;
    // Steady state: the second half of the run, past bucket warm-up.
    let window = (Nanos::from_nanos(run.horizon.as_nanos() / 2), run.horizon);
    let report = evaluate(&slos, &run.sampler, window);
    print!("{}", report.render());
    if report.passed() {
        return Ok(ExitCode::SUCCESS);
    }
    if let Some(path) = &flags.flight {
        write_flight(path, "slo:conformance", &run);
    }
    Ok(ExitCode::FAILURE)
}

/// Runs the demo and exports the span trace of its whole event ring as a
/// Chrome-trace JSON document, plus a per-stage latency table.
fn trace(policy: &Policy, flags: &Flags) -> CmdResult {
    let run = run_demo(policy)?;
    let events = ring_events(&run);
    let doc = chrome_trace(&events);
    let spans = events.iter().filter(|e| e.kind.is_span()).count();
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
    let report = run_chaos(policy, &plan).map_err(|e| e.to_string())?;
    if flags.format == Some("--json") {
        println!("{}", report.to_json().to_pretty());
    } else {
        print!("{}", report.render());
    }
    if let Some(path) = &flags.flight {
        let trigger = format!("chaos:{} fault windows", plan.faults.len());
        write_flight(path, &trigger, &report.run);
    }
    Ok(if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs the demo and prints its sampler's counter-delta time series (CSV
/// by default).
fn timeseries(policy: &Policy, flags: &Flags) -> CmdResult {
    let mut cfg = SamplerConfig::default();
    if let Some(us) = flags.interval_us {
        let ns = us
            .checked_mul(1_000)
            .filter(|&ns| ns > 0)
            .ok_or_else(|| format!("--interval-us must be between 1 and {}", u64::MAX / 1_000))?;
        cfg.interval = Nanos::from_nanos(ns);
    }
    let run = saturate(policy, SEED, cfg).map_err(|e| e.to_string())?;
    let text = match flags.format {
        Some("--prom") => prometheus_text(&run.snapshot),
        Some("--jsonl") => run.sampler.to_jsonl(),
        _ => run.sampler.to_csv(),
    };
    emit(&flags.out, &text)?;
    Ok(ExitCode::SUCCESS)
}

/// Runs the demo and prints the cycle/contention/latency profile its
/// attribution probes folded to. `--folded` emits flamegraph folded
/// stacks (pipe into `inferno-flamegraph`); `--json` the full document.
/// Attribution is deterministic: the same script yields byte-identical
/// output on every run.
fn profile(policy: &Policy, flags: &Flags) -> CmdResult {
    let report = run_demo(policy)?.probe;
    let text = match flags.format {
        Some("--folded") => report.folded(),
        Some("--json") => format!("{}\n", report.to_json().to_pretty()),
        _ => report.render(),
    };
    emit(&flags.out, &text)?;
    Ok(ExitCode::SUCCESS)
}

/// Runs the demo and prints the heavy hitters of its attribution profile:
/// the flows that moved the most wire bits (named via the demo's flow
/// table) and the most contended locks.
fn top(policy: &Policy, _: &Flags) -> CmdResult {
    let run = run_demo(policy)?;
    let report = &run.probe;
    println!(
        "top: {} spans of sampled packets (1 in {}) attributed across {} classes; \
         flow volumes count sampled packets\n",
        report.span_samples().iter().map(|(_, n)| n).sum::<u64>(),
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
    let run = run_demo(policy)?;
    if let Some(pkt) = flags.pkt {
        let rec = run.audit.ring.get(pkt).ok_or_else(|| {
            format!(
                "no provenance for pkt {pkt}: not sampled (1 in {} by \
                 packet id), unlabeled, or evicted from the ring",
                run.snapshot.sample_period()
            )
        })?;
        if flags.format == Some("--json") {
            println!("{}", rec.to_json().to_pretty());
        } else {
            print!("{}", rec.render());
        }
    } else {
        let label = flags.flow.as_deref().expect("checked above");
        let id =
            resolve_class(&run.tree, label).ok_or_else(|| format!("no class named {label}"))?;
        let recs: Vec<ProvenanceRecord> = run
            .audit
            .ring
            .records()
            .into_iter()
            .filter(|r| r.leaf == id.0)
            .collect();
        if recs.is_empty() {
            return Err(format!("no sampled decisions for class {id}"));
        }
        if flags.format == Some("--json") {
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
    let run = match &flags.plan {
        Some(path) => {
            run_chaos(policy, &load_plan(path)?)
                .map_err(|e| e.to_string())?
                .run
        }
        None => run_demo(policy)?,
    };
    let mut records = run.audit.ring.records();
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
    let report = Ledger::audit(&records, &run.audit.slab);
    if flags.format == Some("--json") {
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
    if let Some(path) = &flags.flight {
        let trigger = format!("audit:{} conservation violations", report.violations.len());
        write_flight(path, &trigger, &run);
    }
    Ok(ExitCode::FAILURE)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `COMMANDS` and `FLAGS` name the same flags: one only a table of
    /// subcommands reads would be refused as unknown, one no subcommand
    /// reads would be refused everywhere.
    #[test]
    fn every_flag_is_read_and_every_read_flag_is_known() {
        let read: Vec<&str> = COMMANDS.iter().flat_map(|c| c.2.iter().copied()).collect();
        for &flag in &read {
            assert!(FLAGS.iter().any(|f| f.0 == flag), "{flag} is not in FLAGS");
        }
        for (flag, _) in FLAGS {
            assert!(read.contains(flag), "no subcommand reads {flag}");
        }
    }
}
