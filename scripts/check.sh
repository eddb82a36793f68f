#!/usr/bin/env bash
# Repo-wide gate: formatting, reachability, lints, docs, release build, tier-1
# tests (every crate of the workspace), figure replay, CLI smokes,
# benchmark smoke and the benchmark's own tests.
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> reachability (every pub fn and pub field of crates/*/src has a non-test reader)"
# DESIGN.md §11.1 "Reachability": a public function that nothing but tests
# calls, or a public field that nothing but tests reads, is deleted, made
# #[cfg(test)], or kept at the item with #[allow(dead_code)] and a comment
# naming the test that needs it; this script has no allowlist. The
# compiler decides, on a copy of the tree: every `pub fn` / `pub const fn`
# and every named `pub` field of crates/*/src becomes pub(crate), the
# non-test targets are checked (the root workspace's libs, bins and
# examples, and the benchmark's bin), `pub` goes back on each definition a
# privacy error points at until both checks are clean, and every function
# rustc then calls dead has no caller outside tests, every field it calls
# never read no reader outside them. Planted items test the gate itself:
# a function and a field only a #[cfg(test)] module uses must be flagged,
# a function and a field a bin uses must not.
python3 - <<'PY'
import glob, json, os, re, shutil, subprocess, sys, tempfile
tmp = tempfile.mkdtemp()
try:
    tree = os.path.join(tmp, "tree")
    shutil.copytree(".", tree, ignore=shutil.ignore_patterns("target", ".git", ".bench_build"))
    os.chdir(tree)
    with open("crates/bench/src/lib.rs", "a") as f:
        f.write("\npub fn planted_test_only() {}\npub struct Planted {\n    pub planted_bin_read: u8,\n"
                "    pub planted_test_read: u8,\n}\npub fn planted_bin_called() -> Planted {\n"
                "    Planted { planted_bin_read: 0, planted_test_read: 0 }\n}\n"
                "#[cfg(test)]\nmod planted {\n#[test]\nfn calls() {\nsuper::planted_test_only();\n"
                "let _ = super::planted_bin_called().planted_test_read;\n}\n}\n")
    bin_path = "crates/bench/src/bin/figures.rs"
    src = open(bin_path).read()
    open(bin_path, "w").write(src.replace(
        "fn main() {", "fn main() { let _ = bench::planted_bin_called().planted_bin_read;", 1))
    for p in glob.glob("crates/*/src/**/*.rs", recursive=True):
        src = open(p).read()
        src = re.sub(r"\bpub (const )?fn\b", lambda m: f"pub(crate) {m.group(1) or ''}fn", src)
        open(p, "w").write(re.sub(r"^(\s+)pub (\w+\s*:)", r"\1pub(crate) \2", src, flags=re.M))
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tmp, "target"))
    def check():
        out = []
        for cwd, targets in ((".", ["--workspace", "--lib", "--bins", "--examples"]), ("benchmark", ["--bins"])):
            run = subprocess.run(["cargo", "check", "--offline", "--keep-going", "--message-format=json", *targets],
                                 cwd=cwd, env=env, capture_output=True, text=True)
            for line in run.stdout.splitlines():
                msg = json.loads(line)
                if msg.get("reason") == "compiler-message":
                    out.append((cwd, msg["message"]))
            # The benchmark waits for a clean root: rechecking it every
            # round re-builds what the round just touched a second time.
            if any(m["level"] == "error" for _, m in out):
                break
        return out
    def spans(diag):
        yield from diag["spans"]
        for child in diag["children"]:
            for span in child["spans"]:
                yield dict(span, label=child["message"])
    def publish(path, line):
        lines = open(path).read().split("\n")
        old = lines[line - 1]
        lines[line - 1] = re.sub(r"\bpub\(crate\) ((const )?fn)\b", r"pub \1", old)
        open(path, "w").write("\n".join(lines))
        return lines[line - 1] != old
    def publish_fields(message):
        # E0616 / E0451 name the fields and their struct, not where the
        # struct is defined: reopen them in every struct of that name.
        names = re.findall(r"`([^`]+)`", message)
        struct = re.sub(r"<.*", "", names[-1]).split("::")[-1]
        field = re.compile(rf"^(\s+)pub\(crate\) ((?:{'|'.join(names[:-1])})\s*:)")
        count = 0
        for p in glob.glob("crates/*/src/**/*.rs", recursive=True):
            lines = open(p).read().split("\n")
            before = count
            for i, line in enumerate(lines):
                head = re.match(rf"(\s*)(pub(\(crate\))? )?struct {struct}\b", line)
                if not head or line.rstrip().endswith(";"):
                    continue
                for j in range(i + 1, len(lines)):
                    if lines[j] == head.group(1) + "}":
                        break
                    lines[j], n = field.subn(r"\1pub \2", lines[j])
                    count += n
            if count != before:
                open(p, "w").write("\n".join(lines))
        return count
    rounds = restored = 0
    while True:
        msgs = check()
        errors = [(cwd, m) for cwd, m in msgs if m["level"] == "error"]
        if not errors:
            break
        rounds += 1
        before = restored
        for cwd, m in errors:
            code = (m["code"] or {}).get("code")
            if code == "E0364":
                # `pub use` of a pub(crate) free function: the note names only
                # the use site, so reopen the crate's top-level fn of that name.
                name = re.search(r"`(\w+)`", m["message"]).group(1)
                crate = os.path.relpath(os.path.join(cwd, m["spans"][0]["file_name"])).split("/")[:2]
                for p in glob.glob("/".join(crate) + "/src/**/*.rs", recursive=True):
                    src = open(p).read()
                    new = re.sub(rf"^pub\(crate\) ((const )?fn {name}\b)", r"pub \1", src, flags=re.M)
                    if new != src:
                        open(p, "w").write(new)
                        restored += 1
            elif code in ("E0616", "E0451"):
                restored += publish_fields(m["message"])
            elif code in ("E0603", "E0624"):
                for s in spans(m):
                    path = os.path.relpath(os.path.join(cwd, s["file_name"]))
                    if "defined here" in (s["label"] or "") and path.startswith("crates/"):
                        restored += publish(path, s["line_start"])
        if restored == before:
            for _, m in errors:
                print(m["rendered"])
            print("reachability: the copy does not compile, and no privacy error says why")
            sys.exit(1)
    dead = set()
    for cwd, m in msgs:
        if (m["code"] or {}).get("code") != "dead_code":
            continue
        for s in m["spans"]:
            text = s["text"][0]
            name = text["text"][text["highlight_start"] - 1:text["highlight_end"] - 1]
            if not s["is_primary"]:
                continue
            if re.search(rf"\bfn {name}\b", text["text"]):
                kind = "fn"
            elif "never read" in m["message"] and re.search(rf"\b{name}\s*:", text["text"]):
                kind = "field"
            else:
                continue
            dead.add((os.path.relpath(os.path.join(cwd, s["file_name"])), s["line_start"], kind, name))
    planted = {(kind, name) for _, _, kind, name in dead if name.startswith("planted_")}
    want = {("fn", "planted_test_only"), ("field", "planted_test_read")}
    if planted != want:
        print(f"reachability self-test: flagged {sorted(planted)}, want only {sorted(want)}")
        sys.exit(1)
    dead = sorted(d for d in dead if not d[3].startswith("planted_"))
    for path, line, kind, name in dead:
        print(f"  {path}:{line} {kind} {name}")
    fns = sum(kind == "fn" for _, _, kind, _ in dead)
    print(f"reachability: {fns} pub fn(s) with no non-test caller, {len(dead) - fns} pub field(s) "
          f"with no non-test reader ({rounds} restore rounds, {restored} definitions made pub again; "
          f"self-test ok)")
    sys.exit(1 if dead else 0)
finally:
    shutil.rmtree(tmp)
PY

echo "==> cross-references (every §N names a DESIGN.md section, every ROADMAP item an open one)"
# A section or item renumbered or closed leaves its references behind;
# nothing else notices. A "§N" or "§N.M" in the docs, and a "DESIGN.md §N"
# in a Rust or scripts/*.sh comment, must name a "## N." or "### N.M"
# heading of DESIGN.md.
# An item is open unless its marker says "Closed"; a lettered part is a
# bold "(x)" inside the item. benchmark/ is not scanned: it changes only
# with the benchmark.
python3 - <<'PY'
import glob, re, sys
design = open("DESIGN.md").read()
sections = set(re.findall(r"^## (\d+)\.", design, re.M))
sections |= set(re.findall(r"^### (\d+\.\d+) ", design, re.M))
roadmap = open("ROADMAP.md").read().split("\n## Open items", 1)[1].split("\n### ", 1)[0]
items = {}
for m in re.finditer(r"^- \*\*(\d+)\.(.*?)(?=^- \*\*\d+\.|\Z)", roadmap, re.M | re.S):
    if not m.group(2).lstrip("* ").startswith("Closed"):
        items[m.group(1)] = set(re.findall(r"\*\*\((\w)\)", m.group(2)))
ref = r"§\d+(?:\.\d+)?"
bad = []
def dangling(where, text, matches):
    for m in matches:
        for n in re.findall(r"§(\d+(?:\.\d+)?)", m.group(0)):
            if n not in sections:
                bad.append(f"{where}:{text.count(chr(10), 0, m.start()) + 1}: §{n} names no DESIGN.md section")
for doc in ("README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md", ".claude/skills/verify/SKILL.md"):
    text = open(doc).read()
    dangling(doc, text, re.finditer(ref, text))
    if doc == "ROADMAP.md":
        continue
    at = lambda m: f"{doc}:{text.count(chr(10), 0, m.start()) + 1}"
    for m in re.finditer(r"ROADMAP\s+item\s+(\d+)(?:\s+\((\w)\))?", text):
        n, part = m.groups()
        if n not in items:
            bad.append(f"{at(m)}: ROADMAP item {n} is not an open item")
        elif part and part not in items[n]:
            bad.append(f"{at(m)}: ROADMAP item {n} has no part ({part})")
# In code only "DESIGN.md §N" counts (other § are the paper's): "DESIGN.md
# §7.4, §8", "`DESIGN.md` §4 and §9", also across a comment line break.
cited = 0
for pattern in ("crates/*/src/**/*.rs", "src/**/*.rs", "tests/**/*.rs", "examples/**/*.rs", "scripts/*.sh"):
    for path in sorted(glob.glob(pattern, recursive=True)):
        text = open(path).read()
        refs = list(re.finditer(rf"DESIGN\.md`?(?:\s|//[/!]?|#)+{ref}(?:(?:,\s*|\s+and\s+|–){ref})*", text))
        cited += len(refs)
        dangling(path, text, refs)
for b in bad:
    print(f"  {b}")
print(f"cross-references: {len(bad)} dangling ({cited} DESIGN.md citations in Rust and scripts)")
sys.exit(1 if bad else 0)
PY

echo "==> code paths (every backticked crate::path::Name names a module file or item)"
# A module or item renamed or deleted leaves its backticked path in the
# prose. The first segment is a workspace crate (package or directory
# name); each next segment descends into a module file while one exists,
# and the first that is not one must be declared or re-exported (`pub use`)
# in the module reached; segments after it (a method, a variant) must occur
# somewhere in that crate. Text about a deleted name drops the backticks.
python3 - <<'PY'
import glob, os, re, sys
crates = {}
for toml in glob.glob("crates/*/Cargo.toml"):
    src = os.path.join(os.path.dirname(toml), "src")
    name = re.search(r'^name = "([^"]+)"', open(toml).read(), re.M).group(1)
    if os.path.exists(f"{src}/lib.rs"):
        for alias in (name, os.path.basename(os.path.dirname(toml))):
            crates[alias.replace("-", "_")] = src
def declares(path, name):
    src = open(path).read()
    return bool(re.search(rf"\b(fn|struct|enum|trait|type|const|static|mod)\s+{name}\b", src)
                or re.search(rf"\bpub use [^;]*\b{name}\b[^;]*;", src))
def resolves(src_dir, segs):
    path = f"{src_dir}/lib.rs"
    for i, seg in enumerate(segs):
        base = os.path.dirname(path) if os.path.basename(path) in ("lib.rs", "mod.rs") else path[:-3]
        found = [p for p in (f"{base}/{seg}.rs", f"{base}/{seg}/mod.rs") if os.path.exists(p)]
        if found:
            path = found[0]
            continue
        if not declares(path, seg):
            return False
        words = set()
        for p in glob.glob(f"{src_dir}/**/*.rs", recursive=True):
            words.update(re.findall(r"\w+", open(p).read()))
        return all(s in words for s in segs[i + 1:])
    return True
bad = []
for doc in ("README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"):
    text = open(doc).read()
    for m in re.finditer(r"`([a-z_][a-z0-9_]*)((?:::\w+)+)`", text):
        crate, segs = m.group(1), m.group(2)[2:].split("::")
        if crate in crates and not resolves(crates[crate], segs):
            bad.append(f"{doc}:{text.count(chr(10), 0, m.start()) + 1}: `{m.group(1)}{m.group(2)}`")
for b in bad:
    print(f"  {b} names no module file or item")
print(f"code paths: {len(bad)} dangling")
sys.exit(1 if bad else 0)
PY

echo "==> cargo clippy --workspace -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc -D warnings (no dangling or private intra-doc link)"
# Nothing else notices a doc comment that links to a name a PR deleted.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "==> cargo build --release"
cargo build --release

echo "==> codegen guard (no u128 division and no libm log on the per-packet path)"
# DESIGN.md §4: the simulated path's per-packet arithmetic is integer and
# exact, with no __udivti3 / __umodti3 (u128 division) and no libm `log`.
# The guard disassembles each listed per-packet symbol and every function of
# the workspace's own crates it calls, transitively, and fails on any
# reference to those three, called directly or through the GOT slot a PIE
# build calls them by (objdump -R resolves the slot: a RELATIVE entry to the
# statically linked __udivti3, a GLOB_DAT entry to libm's log; a loop may
# load the slot into a register and call that). It stops at Scale::wide,
# the #[cold] fallback that runs the u128 definition when a product
# overflows u64. A listed symbol that is missing fails too, so inlining
# cannot void the guard. A planted program tests the guard itself: a u128
# division, a log and a call into the first must be flagged, a clean
# function not.
python3 - <<'PY'
import os, re, shutil, subprocess, sys, tempfile
FORBIDDEN = {"__udivti3", "__umodti3", "log"}
OWN = re.compile(r"^<?(sim_core|netstack|np_sim|hostsim|flowvalve|classifier|qdisc|fv_\w+)::")
FALLBACK = {"sim_core::scale::Scale::wide"}
NIC = ["np_sim::nic::SmartNic::rx", "np_sim::engine::WorkerPool::complete",
       "np_sim::tm::TxFifo::enqueue_pkt",
       "<netstack::gen::LineRateProcess as netstack::gen::ArrivalProcess>::next_arrival"]
GUARDED = {"target/release/fv": NIC,
           "target/release/figures": NIC + ["sim_core::stats::Histogram::record",
                                            "sim_core::series::SeriesRecorder::record",
                                            "hostsim::engine::Engine::settle"]}
def out(*cmd):
    return subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
def forbidden_calls(binary, names):
    """{name: [call chains ending in a forbidden symbol]}, None for a missing name."""
    syms, by_addr, got = {}, {}, {}
    for line in out("nm", "-C", "-n", "-S", "--defined-only", binary).splitlines():
        m = re.match(r"([0-9a-f]+) ([0-9a-f]+) [tTwW] (.*)$", line)
        if m:
            addr, size = int(m.group(1), 16), int(m.group(2), 16)
            syms.setdefault(m.group(3), []).append((addr, size))
            by_addr.setdefault(addr, m.group(3))
    for line in out("objdump", "-R", binary).splitlines():
        m = re.match(r"([0-9a-f]+) (R_X86_64_\w+)\s+(\S+)", line)
        if m and m.group(2) == "R_X86_64_RELATIVE":
            target = by_addr.get(int(m.group(3).split("+")[-1], 16))
            if target:
                got[int(m.group(1), 16)] = target
        elif m:
            got[int(m.group(1), 16)] = m.group(3).split("@")[0]
    def callees(addr, size):
        dis = out("objdump", "-d", "--no-show-raw-insn", "-C", f"--start-address={addr:#x}",
                  f"--stop-address={addr + size:#x}", binary)
        for line in dis.splitlines():
            m = re.search(r"\(%rip\)[^#]*# ([0-9a-f]+)", line)
            if m and int(m.group(1), 16) in got:
                yield got[int(m.group(1), 16)]
                continue
            m = re.search(r"\s(call|jmp)\s+([0-9a-f]+) <([^>]*)>", line)
            if m and not addr <= int(m.group(2), 16) < addr + size:
                yield by_addr.get(int(m.group(2), 16), m.group(3).split("@")[0])
    found = {}
    for name in names:
        if name not in syms:
            found[name] = None
            continue
        chains, seen, todo = [], set(), [(name,)]
        while todo:
            path = todo.pop()
            if path[-1] in seen:
                continue
            seen.add(path[-1])
            for addr, size in syms.get(path[-1], []):
                for callee in callees(addr, size):
                    if callee in FORBIDDEN:
                        chains.append(path + (callee,))
                    elif OWN.match(callee) and callee not in FALLBACK:
                        todo.append(path + (callee,))
        found[name] = chains
    return found
tmp = tempfile.mkdtemp()
try:
    open(os.path.join(tmp, "planted.rs"), "w").write(
        "use std::hint::black_box;\n"
        "#[inline(never)]\npub fn planted_divides(n: u64, d: u64) -> u64 {\n"
        "    (n as u128 * 1_000_000_000 / d as u128) as u64\n}\n"
        "#[inline(never)]\npub fn planted_logs(v: f64) -> f64 {\n    v.ln()\n}\n"
        "#[inline(never)]\npub fn planted_calls_through(n: u64) -> u64 {\n"
        "    planted_divides(n, black_box(3)) + 1\n}\n"
        "#[inline(never)]\npub fn planted_clean(n: u64) -> u64 {\n    n.wrapping_mul(3) >> 1\n}\n"
        "fn main() {\n    let n = black_box(7);\n"
        "    black_box((planted_divides(n, black_box(3)), planted_logs(black_box(2.0))));\n"
        "    black_box((planted_calls_through(n), planted_clean(n)));\n}\n")
    planted = os.path.join(tmp, "planted")
    subprocess.run(["rustc", "-O", "--edition", "2021", "--crate-name", "sim_core", "-o", planted,
                    os.path.join(tmp, "planted.rs")], check=True)
    names = [f"sim_core::planted_{n}" for n in ("divides", "logs", "calls_through", "clean")]
    got = {n.split("planted_")[1]: sorted(c[-1] for c in chains)
           for n, chains in forbidden_calls(planted, names).items() if chains is not None}
    want = {"divides": ["__udivti3"], "logs": ["log"], "calls_through": ["__udivti3"], "clean": []}
    if got != want:
        print(f"codegen guard self-test: flagged {got}, want {want}")
        sys.exit(1)
finally:
    shutil.rmtree(tmp)
bad = instances = 0
for binary, names in GUARDED.items():
    for name, chains in forbidden_calls(binary, names).items():
        if chains is None:
            print(f"  {binary}: {name} is missing (inlined or renamed): list what inlines it")
            bad += 1
            continue
        instances += 1
        for chain in chains:
            print(f"  {binary}: " + " -> ".join(chain))
            bad += 1
print(f"codegen guard: {instances} per-packet symbols in {len(GUARDED)} binaries, "
      f"{bad} forbidden calls or missing symbols (self-test ok)")
sys.exit(1 if bad else 0)
PY

echo "==> cargo test -q (tier-1: the whole workspace, via default-members)"
# Timed like the figure replay, so the price of a new test shows on every run.
TIMEFORMAT="tier-1 tests: the whole workspace in %R s"
time cargo test -q

echo "==> figure replay (the figures must rewrite results/ byte for byte)"
# The committed results/*.json are the rows each figure of bench::FIGURES
# returns and results/*.txt the text it writes (per-figure-second tables,
# delivered/dropped counts), so a diff here is a behaviour change of the
# simulated path: either unintended, or to be committed and named row by
# row in CHANGES.md. The files are deleted first, so a figure dropped from
# the table shows as a deleted file and a new one as an untracked file.
rm -f results/*.txt results/*.json
TIMEFORMAT="figure replay: every figure in %R s"
time cargo run --release -q -p bench
if [ -n "$(git status --porcelain results/)" ]; then
    git status --short results/
    echo "the figures no longer reproduce the committed results/"
    exit 1
fi

echo "==> CLI replay (every deterministic fv invocation must hash to results/cli_replay.sha256)"
# The figure-replay gate for the front ends: the committed digests are
# what the binary printed when they were last regenerated, so a diff is a
# behaviour change of `fv` — unintended, or to be committed and named in
# CHANGES.md. A non-zero exit fails too, which makes the `check` line the
# rate-conformance gate and the three `audit` lines the conservation gates.
# The `why --pkt` id is the one sampled packet of ids 64..127 (fv-cli's
# replayed_why_line_names_a_sampled_packet asks the sampler and fails on
# any other).
FV=target/release/fv
while read -r args; do
    sum="$($FV $args </dev/null | sha256sum)" || { echo "fv $args failed"; exit 1; }
    echo "${sum%% *}  fv $args"
done > results/cli_replay.sha256 <<'EOF'
demo scripts/motivation.fv
demo scripts/motivation.fv --json
stats scripts/motivation.fv
check scripts/motivation.fv
trace scripts/motivation.fv
chaos scripts/motivation.fv --plan scripts/demo.chaos
chaos scripts/motivation.fv --plan scripts/demo.chaos --json
chaos scripts/motivation.fv --plan scripts/tm_drop.chaos
chaos scripts/motivation.fv --plan scripts/reconfig.chaos --json
timeseries scripts/motivation.fv
timeseries scripts/motivation.fv --jsonl
timeseries scripts/motivation.fv --prom
profile scripts/motivation.fv
profile scripts/motivation.fv --folded
profile scripts/motivation.fv --json
top scripts/motivation.fv
why scripts/motivation.fv --pkt 103
why scripts/motivation.fv --pkt 103 --json
why scripts/motivation.fv --flow 1:30
audit scripts/motivation.fv
audit scripts/motivation.fv --json
audit scripts/motivation.fv --plan scripts/demo.chaos --json
EOF
git diff --exit-code results/cli_replay.sha256 \
    || { echo "fv no longer prints what results/cli_replay.sha256 records"; exit 1; }

TMP="$(mktemp -d)"
# The two benchmark steps at the end rewrite benchmark/Cargo.lock, stale
# until a `benchmark` issue refreshes it; put it back on the way out so the
# gate leaves the tree as it found it.
cp benchmark/Cargo.lock "$TMP/Cargo.lock"
trap 'cp "$TMP/Cargo.lock" benchmark/Cargo.lock; rm -rf "$TMP"' EXIT

echo "==> fv chaos smoke (fault injection + recovery verdicts)"
$FV chaos scripts/motivation.fv --plan scripts/demo.chaos --json > "$TMP/chaos.json"
python3 - "$TMP/chaos.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["passed"] is True, "chaos demo plan must recover"
assert doc["chaos"]["faults_injected"] >= 2, doc["chaos"]
assert doc["chaos"]["faults_cleared"] == doc["chaos"]["faults_injected"]
assert len(doc["recovery"]["results"]) >= 2, "want a recovery verdict per fault"
metrics = set(doc["snapshot"]["metrics"])
assert "nic.tx_bits" in metrics, "snapshot missing nic counters"
assert "chaos.faults_injected" in metrics, "snapshot missing chaos counters"
print(f"chaos ok: {doc['chaos']['faults_injected']} faults injected, "
      f"{len(doc['recovery']['results'])} recovery checks")
PY

echo "==> fv trace export smoke"
$FV trace scripts/motivation.fv --out "$TMP/trace.json" >/dev/null
python3 - "$TMP/trace.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
cats = {e["cat"] for e in spans}
assert len(cats) >= 4, f"want >=4 span stage categories, got {cats}"
assert any(e["dur"] > 0 for e in spans), "all spans have zero duration"
print(f"trace ok: {len(spans)} spans, stages {sorted(cats)}")
PY

echo "==> fv profile smoke (attribution)"
$FV profile scripts/motivation.fv --json --out "$TMP/profile.json"
python3 - "$TMP/profile.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
phases = doc["cycles"]["by_phase"]
for phase in ("parse", "classify", "sched", "tx_enqueue"):
    assert phases[phase] > 0, f"no cycles attributed to {phase}: {phases}"
spans = doc["span_samples"]
for stage in ("ingress", "classify", "sched", "tm_queue", "wire"):
    assert spans[stage] > 0, f"no span samples in {stage}: {spans}"
assert doc["locks"], "no per-lock contention rows"
assert doc["top_flows"], "no heavy-hitter flows"
print(f"profile ok: {doc['cycles']['total']} cycles attributed, "
      f"{len(doc['locks'])} locks ranked")
PY

echo "==> fv audit smoke (class coverage, mischarge self-test; the replay above covers fv why)"
# The conservation gate is only as wide as the sample behind it: a sampler
# that aliases with the four-flow merge audits one leaf and no borrowing.
$FV audit scripts/motivation.fv --json > "$TMP/audit.json"
python3 - "$TMP/audit.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["ok"] is True and doc["violations"] == [], doc["violations"]
metered = {(l["class"], l["role"]) for l in doc["ledgers"] if l["attempts"] > 0}
for leaf in (10, 30, 40, 41):
    assert (leaf, "class") in metered, f"no meter step audited on leaf 1:{leaf}: {sorted(metered)}"
shadows = sorted(c for c, role in metered if role == "shadow")
assert shadows, "no shadow bucket audited: borrowing went unchecked"
print(f"audit ok: {doc['steps_checked']} meter steps over {doc['records']} records, "
      f"every leaf covered, shadow buckets of {shadows}")
PY
if $FV audit scripts/motivation.fv --inject-mischarge >/dev/null; then
    echo "fv audit --inject-mischarge must exit 1"; exit 1
fi
echo "audit ok: mischarge caught"

echo "==> examples smoke (each must exit 0; scope_observability fails on its SLOs)"
for example in quickstart latency_sensitive_priority scope_observability; do
    cargo run --release -q --example "$example" >/dev/null
done

echo "==> benchmark/run.sh --smoke + its unit tests (the whole-path benchmark still builds and runs)"
# The benchmark is a package of its own that compiles against the crates'
# public API; a PR that breaks a name it or its tests use must fail here,
# not in the pipeline that runs it afterwards. 1/50 size, < 15 s once
# built; the 24 tests (among them observers_do_not_change_simulated_results,
# the whole-fixture form of "observers are attached, never ambient") take
# 8 s cold.
benchmark/run.sh --smoke >/dev/null
(cd benchmark && cargo test --offline -q)

echo "==> scripts/profile.sh smoke (the sampler builds, preloads, and names the hot symbols)"
# A 1 s flow_churn run: the preloaded sampler must take samples at its
# 10 kHz, the run must still report correct, and the busiest symbols must
# resolve to the simulator's own functions, not to "?" or unmapped pages.
scripts/profile.sh flow_churn 1 > "$TMP/profile.txt"
python3 - "$TMP/profile.txt" <<'PY'
import re, sys
lines = open(sys.argv[1]).read().splitlines()
head = re.match(r"(\d+) samples at 10 kHz; pkts_per_s [\d.]+ M, correct (\w+)", lines[0])
assert head and int(head.group(1)) >= 5000 and head.group(2) == "True", lines[0]
names = [line.split(None, 2)[2] for line in lines[1:6]]
assert any(re.match(r"<?(np_sim|flowvalve|classifier|sim_core|netstack)::", n) for n in names), names
print(f"profile.sh ok: {head.group(1)} samples, top symbol {names[0]}")
PY

echo "All checks passed."
