//! End-to-end tests of the `fv` binary.

use std::io::Write as _;
use std::process::{Command, Stdio};

fn fv() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fv"))
}

const GOOD: &str = "\
fv qdisc add dev nic0 root handle 1: fv default 1:20
fv class add dev nic0 parent root classid 1:1 name link rate 10gbit
fv class add dev nic0 parent 1:1 classid 1:10 name hi prio 0
fv class add dev nic0 parent 1:1 classid 1:20 name lo prio 1
fv filter add dev nic0 match ip dport 443 flowid 1:10
";

fn write_script(content: &str) -> tempfile::Scripted {
    tempfile::Scripted::new(content)
}

/// A minimal self-cleaning temp file (no external crate).
mod tempfile {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Distinguishes multiple `Scripted` files alive in one test (pid and
    /// thread id alone would collide).
    static SEQ: AtomicU64 = AtomicU64::new(0);

    pub struct Scripted {
        pub path: PathBuf,
    }

    impl Scripted {
        pub fn new(content: &str) -> Self {
            let path = std::env::temp_dir().join(format!(
                "fv-cli-test-{}-{:?}-{}.fv",
                std::process::id(),
                std::thread::current().id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::write(&path, content).expect("temp file writes");
            Scripted { path }
        }
    }

    impl Drop for Scripted {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

#[test]
fn check_accepts_a_valid_script() {
    let f = write_script(GOOD);
    let out = fv().args(["check"]).arg(&f.path).output().expect("fv runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("3 classes"), "stdout: {stdout}");
    assert!(stdout.contains("1 filters"), "stdout: {stdout}");
    assert!(stdout.contains("1:20"), "stdout: {stdout}");
}

#[test]
fn show_renders_the_tree() {
    let f = write_script(GOOD);
    let out = fv().args(["show"]).arg(&f.path).output().expect("fv runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("1:1 (link)"));
    assert!(stdout.contains("1:10 (hi)"));
    assert!(stdout.contains("rate 10.00Gbps"));
}

#[test]
fn check_rejects_a_broken_hierarchy() {
    let f = write_script("fv class add dev nic0 parent 1:9 classid 1:10 rate 1gbit\n");
    let out = fv().args(["check"]).arg(&f.path).output().expect("fv runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown parent"), "stderr: {stderr}");
}

#[test]
fn parse_errors_are_reported() {
    let f = write_script("fv class add dev nic0 parent root classid 1:1 rate 10zbit\n");
    let out = fv().args(["check"]).arg(&f.path).output().expect("fv runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bad rate"), "stderr: {stderr}");
}

/// Rates the token arithmetic cannot hold: a root whose burst overflows the
/// bucket's signed level (it used to panic), a ceil whose token rate
/// truncated to zero (a starved class), and a ceil whose accrual over one
/// refill interval went negative (a drained ceiling).
#[test]
fn rates_past_the_token_range_are_refused_by_name() {
    for (class, root, ceil) in [
        ("1:1", "562949954gbit", "10gbit"),
        ("1:10", "10gbit", "4294967296gbit"),
        ("1:10", "10gbit", "4294967295gbit"),
    ] {
        let f = write_script(&format!(
            "fv qdisc add dev nic0 root handle 1: fv\n\
             fv class add dev nic0 parent root classid 1:1 rate {root}\n\
             fv class add dev nic0 parent 1:1 classid 1:10 ceil {ceil}\n\
             fv filter add dev nic0 match ip dport 5001 flowid 1:10\n"
        ));
        for cmd in ["show", "demo", "check"] {
            let out = fv().arg(cmd).arg(&f.path).output().expect("fv runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(
                out.status.code(),
                Some(1),
                "fv {cmd}, {root}/{ceil}: {stderr}"
            );
            assert!(
                stderr.contains(&format!("class {class} has a rate or ceil too large")),
                "fv {cmd}, {root}/{ceil}: {stderr}"
            );
            assert!(!stderr.contains("panicked"), "{stderr}");
        }
    }
}

/// A filter may name at most eight lender classes; `QosLabel::new` panics
/// on a ninth, so the tree must refuse it first.
#[test]
fn a_ninth_lender_is_refused_by_name() {
    let script = |lenders: usize| {
        let mut s = String::from(
            "fv qdisc add dev nic0 root handle 1: fv\n\
             fv class add dev nic0 parent root classid 1:1 rate 10gbit\n\
             fv class add dev nic0 parent 1:1 classid 1:10\n",
        );
        for i in 0..lenders {
            s += &format!("fv class add dev nic0 parent 1:1 classid 1:{}\n", 20 + i);
        }
        let borrow: Vec<String> = (0..lenders).map(|i| format!("1:{}", 20 + i)).collect();
        s += &format!(
            "fv filter add dev nic0 match ip dport 5001 flowid 1:10 borrow {}\n",
            borrow.join(",")
        );
        write_script(&s)
    };
    let eight = script(8);
    let out = fv()
        .arg("check")
        .arg(&eight.path)
        .output()
        .expect("fv runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let nine = script(9);
    for cmd in ["show", "demo", "check"] {
        let out = fv().arg(cmd).arg(&nine.path).output().expect("fv runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "fv {cmd}: {stderr}");
        assert!(
            stderr.contains("class 1:10 borrows from more than 8 lender classes"),
            "fv {cmd}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}

#[test]
fn reads_from_stdin() {
    let mut child = fv()
        .args(["check", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("fv spawns");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(GOOD.as_bytes())
        .expect("stdin writes");
    let out = child.wait_with_output().expect("fv finishes");
    assert!(out.status.success());
}

/// A bad command line exits 2 with the usage, which names every
/// subcommand on a line of its own, followed by what it does; the lines
/// under it list the flags it reads.
#[test]
fn usage_on_bad_invocation() {
    let out = fv().output().expect("fv runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    // Below the line that says what was wrong with the command line.
    let mut lines = stderr.lines().skip(1);
    assert_eq!(
        lines.next(),
        Some("usage: fv <subcommand> <script.fv|-> [flags]")
    );
    let described: Vec<(&str, &str)> = lines
        .filter(|l| !l.trim_start().starts_with('['))
        .map(|l| l.trim_start().split_once(' ').unwrap_or((l.trim(), "")))
        .map(|(name, what)| (name, what.trim()))
        .collect();
    let names: Vec<&str> = described.iter().map(|(name, _)| *name).collect();
    assert_eq!(
        names,
        [
            "check",
            "show",
            "demo",
            "stats",
            "trace",
            "timeseries",
            "chaos",
            "profile",
            "top",
            "why",
            "audit"
        ],
        "stderr: {stderr}"
    );
    for (name, what) in described {
        assert!(
            what.split_whitespace().count() >= 4,
            "{name} has no description: {stderr}"
        );
    }
}

#[test]
fn demo_prints_class_table() {
    let f = write_script(GOOD);
    let out = fv().args(["demo"]).arg(&f.path).output().expect("fv runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("theta"), "stdout: {stdout}");
    assert!(stdout.contains("nic:"), "stdout: {stdout}");
    // The per-class table is routed through the telemetry snapshot.
    assert!(stdout.contains("forwarded"), "stdout: {stdout}");
    assert!(stdout.contains("latency: p50"), "stdout: {stdout}");
}

#[test]
fn demo_json_emits_the_telemetry_snapshot() {
    let f = write_script(GOOD);
    let out = fv()
        .args(["demo"])
        .arg(&f.path)
        .arg("--json")
        .output()
        .expect("fv runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let trimmed = stdout.trim();
    assert!(
        trimmed.starts_with('{') && trimmed.ends_with('}'),
        "not a JSON object"
    );
    // Per-class verdict counters and the latency histogram are present.
    assert!(
        stdout.contains("\"fv.class.1:10.forwarded\""),
        "stdout: {stdout}"
    );
    assert!(
        stdout.contains("\"fv.class.1:20.dropped\""),
        "stdout: {stdout}"
    );
    assert!(
        stdout.contains("\"fv.class.1:10.borrowed\""),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("\"nic.latency_ns\""), "stdout: {stdout}");
    assert!(stdout.contains("\"p99_ns\""), "stdout: {stdout}");
    // Trace events ride along.
    assert!(stdout.contains("\"events\""), "stdout: {stdout}");
}

#[test]
fn stats_mimics_tc_qdisc_show() {
    let f = write_script(GOOD);
    let out = fv().args(["stats"]).arg(&f.path).output().expect("fv runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("qdisc fv 1: dev nic0 root"),
        "stdout: {stdout}"
    );
    assert!(
        stdout.contains("class fv 1:10 (hi) parent 1:1"),
        "stdout: {stdout}"
    );
    assert!(stdout.contains(" Sent "), "stdout: {stdout}");
    assert!(stdout.contains("dropped"), "stdout: {stdout}");
    assert!(stdout.contains("theta"), "stdout: {stdout}");
}

/// A tree whose guarantees cannot all hold: two equal-priority leaves
/// each demand 8 of the root's 10 Gbps. `fv check` must catch it.
const OVERSUBSCRIBED: &str = "\
fv qdisc add dev nic0 root handle 1: fv default 1:20
fv class add dev nic0 parent root classid 1:1 name link rate 10gbit
fv class add dev nic0 parent 1:1 classid 1:10 name a rate 8gbit
fv class add dev nic0 parent 1:1 classid 1:20 name b rate 8gbit
fv filter add dev nic0 match vf 0 flowid 1:10
fv filter add dev nic0 match vf 1 flowid 1:20
";

#[test]
fn check_reports_rate_conformance() {
    let f = write_script(GOOD);
    let out = fv().args(["check"]).arg(&f.path).output().expect("fv runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("conformance over"), "stdout: {stdout}");
    assert!(
        stdout.contains("leaves sum to root rate"),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("assertions passed"), "stdout: {stdout}");
    assert!(!stdout.contains("FAIL"), "stdout: {stdout}");
}

#[test]
fn check_fails_on_unachievable_guarantees() {
    let f = write_script(OVERSUBSCRIBED);
    let out = fv().args(["check"]).arg(&f.path).output().expect("fv runs");
    assert!(!out.status.success(), "oversubscribed tree must fail check");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("FAIL"), "stdout: {stdout}");
    assert!(stdout.contains("achieves >=95%"), "stdout: {stdout}");
    assert!(stdout.contains("assertions FAILED"), "stdout: {stdout}");
}

#[test]
fn trace_exports_chrome_trace_json() {
    use fv_telemetry::json::JsonValue;

    let f = write_script(GOOD);
    let out_path = std::env::temp_dir().join(format!(
        "fv-cli-trace-{}-{:?}.json",
        std::process::id(),
        std::thread::current().id()
    ));
    let out = fv()
        .args(["trace"])
        .arg(&f.path)
        .arg("--out")
        .arg(&out_path)
        .output()
        .expect("fv runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The terminal companion is the per-stage latency table.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("stage"), "stdout: {stdout}");
    assert!(stdout.contains("wire"), "stdout: {stdout}");

    let text = std::fs::read_to_string(&out_path).expect("trace file written");
    let _ = std::fs::remove_file(&out_path);
    let doc = JsonValue::parse(&text).expect("trace is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let span_cats: std::collections::BTreeSet<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
        .filter_map(|e| e.get("cat").and_then(|c| c.as_str()))
        .collect();
    assert!(
        span_cats.len() >= 4,
        "want >=4 distinct span stage categories, got {span_cats:?}"
    );
    // Wire spans carry nonzero durations (serialization time).
    let wire_dur = events
        .iter()
        .filter(|e| e.get("cat").and_then(|c| c.as_str()) == Some("wire"))
        .filter_map(|e| e.get("dur").and_then(|d| d.as_f64()))
        .fold(0.0_f64, f64::max);
    assert!(wire_dur > 0.0, "wire spans must have duration");
}

#[test]
fn timeseries_emits_per_class_csv() {
    let f = write_script(GOOD);
    let out = fv()
        .args(["timeseries"])
        .arg(&f.path)
        .args(["--interval-us", "1000"])
        .output()
        .expect("fv runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines();
    let header = lines.next().expect("csv header");
    assert!(header.starts_with("t_ns,"), "header: {header}");
    assert!(header.contains("fv.class.1:10.tx_bits"), "header: {header}");
    let rows: Vec<&str> = lines.collect();
    // 10 ms horizon at 1 ms cadence = 10 frames.
    assert_eq!(rows.len(), 10, "rows: {rows:?}");
    let cols = header.split(',').count();
    for row in &rows {
        assert_eq!(row.split(',').count(), cols);
        for v in row.split(',') {
            v.parse::<u64>().expect("numeric cell");
        }
    }
}

/// An interval of zero, or one whose nanoseconds do not fit in `u64`, is
/// refused by name before anything runs.
#[test]
fn timeseries_refuses_an_interval_it_cannot_sample_at() {
    let f = write_script(GOOD);
    // u64::MAX / 1000 + 1: the smallest count of microseconds that overflows.
    for us in ["0", "18446744073709552"] {
        let out = fv()
            .args(["timeseries"])
            .arg(&f.path)
            .args(["--interval-us", us])
            .output()
            .expect("fv runs");
        assert_eq!(out.status.code(), Some(1), "--interval-us {us}");
        assert!(out.stdout.is_empty(), "--interval-us {us} sampled");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--interval-us must be between 1 and 18446744073709551"),
            "stderr: {stderr}"
        );
    }
}

#[test]
fn timeseries_prometheus_text_has_typed_families() {
    let f = write_script(GOOD);
    let out = fv()
        .args(["timeseries", "--prom"])
        .arg(&f.path)
        .output()
        .expect("fv runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("# TYPE"), "stdout: {stdout}");
    assert!(stdout.contains("counter"), "stdout: {stdout}");
}

// ---- golden-file tests ------------------------------------------------
//
// The machine-readable surfaces (`demo --json` schema, `stats` layout)
// are contracts downstream tooling parses; these tests pin them. Set
// FV_UPDATE_GOLDEN=1 to rewrite the goldens after an intentional change.

fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn assert_matches_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("FV_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e} (run with FV_UPDATE_GOLDEN=1)",
            path.display()
        )
    });
    assert_eq!(
        actual,
        expected,
        "output drifted from {}; rerun with FV_UPDATE_GOLDEN=1 if intentional",
        path.display()
    );
}

/// Collects every object key as a dotted path, recursing through arrays
/// via their first element (the run is seeded, so this is deterministic).
fn key_paths(
    v: &fv_telemetry::json::JsonValue,
    prefix: &str,
    out: &mut std::collections::BTreeSet<String>,
) {
    use fv_telemetry::json::JsonValue;
    match v {
        JsonValue::Obj(fields) => {
            for (k, val) in fields {
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                out.insert(path.clone());
                key_paths(val, &path, out);
            }
        }
        JsonValue::Arr(items) => {
            if let Some(first) = items.first() {
                key_paths(first, &format!("{prefix}[]"), out);
            }
        }
        _ => {}
    }
}

#[test]
fn demo_json_schema_matches_golden() {
    use fv_telemetry::json::JsonValue;

    let f = write_script(GOOD);
    let out = fv()
        .args(["demo", "--json"])
        .arg(&f.path)
        .output()
        .expect("fv runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let doc = JsonValue::parse(&stdout).expect("demo --json parses");
    let mut paths = std::collections::BTreeSet::new();
    key_paths(&doc, "", &mut paths);
    let schema: String = paths.into_iter().map(|p| p + "\n").collect();
    assert_matches_golden("demo_json_schema.txt", &schema);
}

// ---- fv profile / fv top ---------------------------------------------

#[test]
fn profile_folded_is_deterministic_and_covers_phases() {
    let f = write_script(GOOD);
    let run = || {
        let out = fv()
            .args(["profile", "--folded"])
            .arg(&f.path)
            .output()
            .expect("fv runs");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let first = run();
    let second = run();
    assert_eq!(
        first, second,
        "folded profile must be byte-identical for the same seed"
    );
    let text = String::from_utf8_lossy(&first);
    for phase in [";parse;", ";classify;", ";sched;", ";tx_enqueue;"] {
        assert!(text.contains(phase), "missing {phase} in:\n{text}");
    }
    // Every line is a `frames count` pair rooted at the NIC.
    for line in text.lines() {
        let (stack, count) = line.rsplit_once(' ').expect("stack/count pair");
        assert!(stack.starts_with("nic;"), "bad frame root: {line}");
        count.parse::<u64>().expect("numeric sample count");
    }
}

#[test]
fn profile_json_reports_attribution() {
    use fv_telemetry::json::JsonValue;

    let f = write_script(GOOD);
    let out = fv()
        .args(["profile", "--json"])
        .arg(&f.path)
        .output()
        .expect("fv runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = JsonValue::parse(&String::from_utf8_lossy(&out.stdout)).expect("profile json");
    let cycles = doc.get("cycles").expect("cycles section");
    assert!(cycles.get("total").and_then(JsonValue::as_u64).unwrap() > 0);
    let by_phase = cycles.get("by_phase").expect("by_phase");
    for phase in ["parse", "classify", "sched", "tx_enqueue"] {
        assert!(
            by_phase.get(phase).and_then(JsonValue::as_u64).unwrap() > 0,
            "phase {phase} has no cycles"
        );
    }
    let spans = doc.get("span_samples").expect("span_samples");
    for stage in ["ingress", "classify", "sched", "tm_queue", "wire"] {
        assert!(
            spans.get(stage).and_then(JsonValue::as_u64).unwrap() > 0,
            "stage {stage} has no span samples"
        );
    }
    assert!(!doc.get("latency").unwrap().as_arr().unwrap().is_empty());
    assert!(!doc.get("top_flows").unwrap().as_arr().unwrap().is_empty());
    assert!(!doc.get("waterlines").unwrap().as_arr().unwrap().is_empty());
}

#[test]
fn top_lists_heavy_flows_and_locks() {
    let f = write_script(GOOD);
    let out = fv().args(["top"]).arg(&f.path).output().expect("fv runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("wire_bits"), "stdout: {stdout}");
    // Flows are named via the demo flow table, not just hashed.
    assert!(stdout.contains(" -> "), "stdout: {stdout}");
    assert!(stdout.contains("top contended locks"), "stdout: {stdout}");
}

// ---- closed stdout ------------------------------------------------------

/// `fv top … | head -1`: the reader goes away while `fv` still prints. That
/// ends `fv` by `SIGPIPE` (what a shell shows as status 141), without a
/// panic message or a backtrace.
#[cfg(unix)]
#[test]
fn a_closed_stdout_ends_fv_quietly() {
    use std::io::{BufRead as _, BufReader};
    use std::os::unix::process::ExitStatusExt as _;

    // `fv trace` prints megabytes, so the pipe is still full when the read
    // end closes.
    let mut child = fv()
        .args(["trace"])
        .arg(motivation_script())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("fv runs");
    let mut first = String::new();
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    stdout.read_line(&mut first).expect("first line");
    assert_eq!(first, "{\n");
    drop(stdout);
    let out = child.wait_with_output().expect("fv exits");
    assert_eq!(out.status.signal(), Some(13), "{:?}", out.status);
    assert!(
        out.stderr.is_empty(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

// ---- strict flags -----------------------------------------------------

/// Runs `fv <args>` on the GOOD script and expects exit 2 with `flag`
/// named on stderr before the usage line.
fn assert_refused(args: &[&str], flag: &str) {
    let f = write_script(GOOD);
    let out = fv()
        .arg(args[0])
        .arg(&f.path)
        .args(&args[1..])
        .output()
        .expect("fv runs");
    assert_eq!(out.status.code(), Some(2), "fv {args:?}");
    assert!(out.stdout.is_empty(), "a refused command line runs nothing");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let (named, usage) = (stderr.find(flag), stderr.find("usage: fv"));
    assert!(
        matches!((named, usage), (Some(n), Some(u)) if n < u),
        "stderr: {stderr}"
    );
}

#[test]
fn unknown_flag_is_refused() {
    assert_refused(&["demo", "--bogus"], "unknown flag --bogus");
    // A switch takes no value: `--json=1` is not a flag `fv` knows.
    assert_refused(&["demo", "--json=1"], "unknown flag --json=1");
    // A flag `fv` knows is refused by a subcommand that does not read it.
    assert_refused(&["demo", "--prom"], "demo does not read --prom");
    assert_refused(
        &["why", "--pkt", "103", "--folded"],
        "why does not read --folded",
    );
    // Flags may come before the positionals too.
    let f = write_script(GOOD);
    let out = fv().args(["--csv", "demo"]).arg(&f.path).output();
    let out = out.expect("fv runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("demo does not read --csv"), "{stderr}");
}

#[test]
fn valued_flag_without_a_value_is_refused() {
    for (cmd, flag) in [("why", "--pkt"), ("chaos", "--plan"), ("trace", "--out")] {
        assert_refused(&[cmd, flag], &format!("{flag} needs a value"));
    }
}

#[test]
fn valued_flag_given_twice_is_refused() {
    assert_refused(&["why", "--pkt", "103", "--pkt=64"], "--pkt given twice");
    assert_refused(
        &["timeseries", "--interval-us=10", "--interval-us", "20"],
        "--interval-us given twice",
    );
    assert_refused(
        &["chaos", "--plan", "a", "--plan", "b"],
        "--plan given twice",
    );
}

#[test]
fn two_output_formats_are_refused() {
    assert_refused(&["timeseries", "--csv", "--prom"], "--csv and --prom:");
    assert_refused(&["profile", "--folded", "--json"], "--folded and --json:");
}

#[test]
fn unparsable_number_is_refused() {
    assert_refused(&["timeseries", "--interval-us", "abc"], "--interval-us");
    assert_refused(&["timeseries", "--interval-us=abc"], "--interval-us");
    assert_refused(&["why", "--pkt", "-1"], "--pkt");
}

// ---- flight recorder --------------------------------------------------

const CHAOS_PLAN: &str = "\
chaos seed 7
chaos fault wire_flap at 2ms for 1ms permille 500
";

#[test]
fn check_flight_dumps_profile_on_slo_violation() {
    use fv_telemetry::json::JsonValue;

    let f = write_script(OVERSUBSCRIBED);
    let flight =
        std::env::temp_dir().join(format!("fv-cli-flight-check-{}.json", std::process::id()));
    let out = fv()
        .args(["check"])
        .arg(&f.path)
        .arg("--flight")
        .arg(&flight)
        .output()
        .expect("fv runs");
    assert!(!out.status.success(), "oversubscribed tree must fail check");
    let text = std::fs::read_to_string(&flight).expect("flight recorder written");
    let _ = std::fs::remove_file(&flight);
    let doc = JsonValue::parse(&text).expect("flight doc parses");
    assert_eq!(
        doc.get("trigger").and_then(|t| t.as_str()),
        Some("slo:conformance")
    );
    let profile = doc.get("profile").expect("profile embedded");
    assert!(
        profile
            .get("cycles")
            .and_then(|c| c.get("total"))
            .and_then(JsonValue::as_u64)
            .unwrap()
            > 0
    );
    assert!(!doc.get("trace").unwrap().as_arr().unwrap().is_empty());
}

#[test]
fn chaos_flight_writes_profile_dump() {
    use fv_telemetry::json::JsonValue;

    let f = write_script(GOOD);
    let plan = write_script(CHAOS_PLAN);
    let flight =
        std::env::temp_dir().join(format!("fv-cli-flight-chaos-{}.json", std::process::id()));
    let out = fv()
        .args(["chaos"])
        .arg(&f.path)
        .arg("--plan")
        .arg(&plan.path)
        .arg("--flight")
        .arg(&flight)
        .output()
        .expect("fv runs");
    assert!(
        out.status.success(),
        "stderr: {}\nstdout: {}",
        String::from_utf8_lossy(&out.stderr),
        String::from_utf8_lossy(&out.stdout)
    );
    let text = std::fs::read_to_string(&flight).expect("flight recorder written");
    let _ = std::fs::remove_file(&flight);
    let doc = JsonValue::parse(&text).expect("flight doc parses");
    assert_eq!(
        doc.get("trigger").and_then(|t| t.as_str()),
        Some("chaos:1 fault windows")
    );
    assert!(
        doc.get("profile")
            .and_then(|p| p.get("cycles"))
            .and_then(|c| c.get("total"))
            .and_then(JsonValue::as_u64)
            .unwrap()
            > 0
    );
    // The dump covers the fault window: its trace starts no later than
    // the plan's first fault (2 ms), not in the run's last microseconds.
    let trace = doc.get("trace").and_then(JsonValue::as_arr).unwrap();
    let earliest = trace
        .iter()
        .filter_map(|e| e.get("at_ns").and_then(JsonValue::as_u64))
        .min()
        .expect("the dump carries trace events");
    assert!(
        earliest <= 2_000_000,
        "earliest trace event at {earliest} ns"
    );
}

/// A policy with more filters than the saturation run has source
/// addresses is refused by name — it used to overflow `10 + i as u8` (a
/// panic in debug builds, aliased flows in release).
#[test]
fn demo_and_chaos_refuse_a_policy_they_cannot_address() {
    let mut script = String::from(GOOD);
    for i in 1..250 {
        script.push_str(&format!(
            "fv filter add dev nic0 match ip dport {} flowid 1:20\n",
            1000 + i
        ));
    }
    let f = write_script(&script);
    let plan = write_script(CHAOS_PLAN);
    let demo = fv().arg("demo").arg(&f.path).output().expect("fv runs");
    let chaos = fv()
        .arg("chaos")
        .arg(&f.path)
        .arg("--plan")
        .arg(&plan.path)
        .output()
        .expect("fv runs");
    for out in [demo, chaos] {
        assert_eq!(out.status.code(), Some(1));
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.starts_with("fv: 250 filters") && err.contains("at most 246"),
            "{err}"
        );
    }
}

/// A plan value its field or the clock cannot hold (`app 65536`, `vf 256`,
/// a window ending past `u64::MAX` ns) is refused by value, exit 1, before
/// anything runs: never wrapped into another app, VF or window.
#[test]
fn chaos_refuses_a_plan_value_out_of_range() {
    let f = write_script(GOOD);
    for (fault, named) in [
        ("host_pause at 3ms for 2ms app 65536", "app 65536"),
        ("vf_reset at 3ms for 1ms vf 256", "vf 256"),
        (
            "host_pause at 18446744073709551615ns for 2ms app 0",
            "at 18446744073709551615ns for 2000000ns",
        ),
    ] {
        let plan = write_script(&format!("chaos seed 7\nchaos fault {fault}\n"));
        let out = fv()
            .arg("chaos")
            .arg(&f.path)
            .arg("--plan")
            .arg(&plan.path)
            .output()
            .expect("fv runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{fault}: {err}");
        assert!(
            out.stdout.is_empty(),
            "{fault}: a refused plan runs nothing"
        );
        assert!(
            err.starts_with("fv: ") && err.contains("plan line 2") && err.contains(named),
            "{fault}: {err}"
        );
    }
}

#[test]
fn chaos_json_schema_matches_golden() {
    use fv_telemetry::json::JsonValue;

    let f = write_script(GOOD);
    let plan = write_script(CHAOS_PLAN);
    let out = fv()
        .args(["chaos", "--json"])
        .arg(&f.path)
        .arg("--plan")
        .arg(&plan.path)
        .output()
        .expect("fv runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = JsonValue::parse(&String::from_utf8_lossy(&out.stdout)).expect("chaos json");
    let mut paths = std::collections::BTreeSet::new();
    key_paths(&doc, "", &mut paths);
    let schema: String = paths.into_iter().map(|p| p + "\n").collect();
    assert_matches_golden("chaos_json_schema.txt", &schema);
}

/// The replayed `fv chaos … --plan scripts/reconfig.chaos --json` line
/// carries the conservation ledger's verdict on the run's two hot reloads:
/// sampled records folded, meter steps checked, no violation.
#[test]
fn reconfig_chaos_json_reports_no_conservation_violation() {
    use fv_telemetry::json::JsonValue;

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = fv()
        .current_dir(&root)
        .args([
            "chaos",
            "scripts/motivation.fv",
            "--plan",
            "scripts/reconfig.chaos",
        ])
        .arg("--json")
        .output()
        .expect("fv runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = JsonValue::parse(&String::from_utf8_lossy(&out.stdout)).expect("chaos json");
    let metrics = doc
        .get("snapshot")
        .and_then(|s| s.get("metrics"))
        .expect("snapshot metrics");
    let counter = |name: &str| {
        metrics
            .get(name)
            .and_then(JsonValue::as_u64)
            .unwrap_or_else(|| panic!("no counter {name}"))
    };
    assert!(counter("audit.records") > 0);
    assert!(counter("audit.steps_checked") > 0);
    assert_eq!(counter("audit.violations"), 0);
}

#[test]
fn stats_reports_per_lock_contention() {
    let f = write_script(GOOD);
    let out = fv().args(["stats"]).arg(&f.path).output().expect("fv runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("locks (ranked by wait):"),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("acquires"), "stdout: {stdout}");
    assert!(stdout.contains("contention"), "stdout: {stdout}");
}

#[test]
fn stats_layout_matches_golden() {
    let f = write_script(GOOD);
    let out = fv().args(["stats"]).arg(&f.path).output().expect("fv runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Normalize every digit run to `N` so the golden pins the layout and
    // vocabulary without freezing measured quantities.
    let mut normalized = String::with_capacity(stdout.len());
    let mut in_digits = false;
    for c in stdout.chars() {
        if c.is_ascii_digit() || (in_digits && c == '.') {
            if !in_digits {
                normalized.push('N');
                in_digits = true;
            }
        } else {
            in_digits = false;
            normalized.push(c);
        }
    }
    assert_matches_golden("stats_layout.txt", &normalized);
}

/// The first packet id in `range` the registry's sampler does (`true`) or
/// does not (`false`) select — asked of the sampler, never guessed.
fn first_id(range: std::ops::Range<u64>, sampled: bool) -> u64 {
    let sampler = fv_telemetry::Sampler::default();
    let mut ids = range;
    ids.find(|&id| sampler.hit(id) == sampled)
        .expect("a block of 64 ids holds one sampled id and 63 others")
}

#[test]
fn why_resolves_a_sampled_packet_and_rejects_an_unsampled_one() {
    let f = write_script(GOOD);
    // Early enough to never be evicted from the provenance ring.
    let (hit, miss) = (first_id(64..128, true), first_id(64..128, false));
    let out = fv()
        .args(["why"])
        .arg(&f.path)
        .args(["--pkt", &hit.to_string()])
        .output()
        .expect("fv runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains(&format!("pkt {hit} ")), "stdout: {stdout}");
    assert!(stdout.contains("verdict"), "stdout: {stdout}");
    assert!(stdout.contains("tokens"), "stdout: {stdout}");
    // An unsampled id: the command must fail with an explanation.
    let out = fv()
        .args(["why"])
        .arg(&f.path)
        .args(["--pkt", &miss.to_string()])
        .output()
        .expect("fv runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no provenance"), "stderr: {stderr}");
    assert!(stderr.contains("1 in 64"), "stderr: {stderr}");
}

/// `scripts/check.sh` replays `fv why … --pkt <id>` against a committed
/// digest; the id it names must be one the sampler selects, or the line
/// pins an error message instead of a decision walk.
#[test]
fn replayed_why_line_names_a_sampled_packet() {
    let check = std::fs::read_to_string(motivation_script().with_file_name("check.sh"))
        .expect("scripts/check.sh");
    let line = check
        .lines()
        .find(|l| l.starts_with("why scripts/motivation.fv --pkt "))
        .expect("check.sh replays a `why --pkt` line");
    let id: u64 = line.rsplit(' ').next().unwrap().parse().expect("packet id");
    assert_eq!(id, first_id(64..128, true), "{line}");
}

/// The in-tree policy: four equal-rate flows, one per filter, so a sampler
/// whose period the flow count divides would only ever see the first.
fn motivation_script() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scripts/motivation.fv")
}

#[test]
fn why_flow_resolves_a_class_that_is_not_the_first() {
    let out = fv()
        .args(["why"])
        .arg(motivation_script())
        .args(["--flow", "1:30"])
        .output()
        .expect("fv runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("class 1:30:"), "stdout: {stdout}");
    assert!(
        stdout.contains("sampled decisions (1 in 64;"),
        "stdout: {stdout}"
    );
}

#[test]
fn audit_covers_every_leaf_and_a_shadow_bucket() {
    use fv_telemetry::json::JsonValue;

    let script = motivation_script();
    let out = fv()
        .args(["audit"])
        .arg(&script)
        .args(["--json"])
        .output()
        .expect("fv runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = JsonValue::parse(&String::from_utf8_lossy(&out.stdout)).expect("audit json");
    let ledgers = doc
        .get("ledgers")
        .and_then(|l| l.as_arr())
        .expect("ledgers");
    let metered = |class: u64, role: &str| {
        ledgers.iter().any(|l| {
            l.get("class").and_then(JsonValue::as_u64) == Some(class)
                && l.get("role").and_then(|r| r.as_str()) == Some(role)
                && l.get("attempts").and_then(JsonValue::as_u64) > Some(0)
        })
    };
    let policy = flowvalve::frontend::Policy::parse(&std::fs::read_to_string(&script).unwrap())
        .expect("motivation.fv parses");
    assert_eq!(policy.filters.len(), 4);
    for f in &policy.filters {
        assert!(
            metered(f.class.0.into(), "class"),
            "no meter step audited on leaf 1:{}",
            f.class.0
        );
    }
    assert!(
        ledgers
            .iter()
            .filter_map(|l| l.get("class").and_then(JsonValue::as_u64))
            .any(|class| metered(class, "shadow")),
        "no shadow bucket audited: borrowing went unchecked"
    );
}

#[test]
fn why_flow_summarizes_a_class() {
    let f = write_script(GOOD);
    let out = fv()
        .args(["why"])
        .arg(&f.path)
        .args(["--flow", "hi"])
        .output()
        .expect("fv runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("class 1:10:"), "stdout: {stdout}");
    assert!(stdout.contains("sampled decisions"), "stdout: {stdout}");
    assert!(stdout.contains("most recent:"), "stdout: {stdout}");
}

#[test]
fn audit_passes_clean_and_fails_on_injected_mischarge() {
    let f = write_script(GOOD);
    let out = fv().args(["audit"]).arg(&f.path).output().expect("fv runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 violations"), "stdout: {stdout}");
    // The self-test corrupts one green meter step; the ledger must catch
    // exactly that and flip the exit code.
    let out = fv()
        .args(["audit"])
        .arg(&f.path)
        .args(["--inject-mischarge"])
        .output()
        .expect("fv runs");
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("1 violations"), "stdout: {stdout}");
    assert!(stdout.contains("[mischarge]"), "stdout: {stdout}");
}

#[test]
fn audit_json_reports_machine_readable_verdict() {
    let f = write_script(GOOD);
    let out = fv()
        .args(["audit"])
        .arg(&f.path)
        .args(["--json"])
        .output()
        .expect("fv runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"violations\": []"), "stdout: {stdout}");
    assert!(stdout.contains("\"records\""), "stdout: {stdout}");
}

/// Every `--json` line of `scripts/check.sh`'s replay list prints one
/// document that `JsonValue::parse` reads back and re-renders byte for
/// byte, so the parser's bounds refuse nothing `fv` writes.
#[test]
fn every_replayed_json_output_parses_and_round_trips() {
    use fv_telemetry::json::JsonValue;

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let check = std::fs::read_to_string(root.join("scripts/check.sh")).expect("scripts/check.sh");
    let lines: Vec<&str> = check
        .lines()
        .skip_while(|l| !l.ends_with("<<'EOF'"))
        .take_while(|&l| l != "EOF")
        .filter(|l| l.ends_with("--json"))
        .collect();
    assert_eq!(lines.len(), 7, "{lines:?}");
    for line in lines {
        let out = fv()
            .current_dir(&root)
            .args(line.split(' '))
            .output()
            .expect("fv runs");
        assert!(out.status.success(), "fv {line}");
        let text = String::from_utf8(out.stdout).expect("utf-8");
        let doc = JsonValue::parse(&text).unwrap_or_else(|e| panic!("fv {line}: {e}"));
        assert_eq!(doc.to_pretty() + "\n", text, "fv {line}");
    }
}
