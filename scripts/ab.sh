#!/usr/bin/env bash
# Interleaved parent/change pairs of the whole-path benchmark, the protocol
# a performance claim rests on: at least ten pairs, and a gain counts when the
# change wins nine in ten and the medians lie further apart than the
# parent's quartiles.
#
#   scripts/ab.sh <parent-rev> <change-rev> <workload> <pairs> [seconds] [first-seed]
#
# Each revision is exported with `git archive` into a temporary directory
# (nothing is added to the repository's worktrees or index) and built, offline,
# through its own benchmark/run.sh into its own CARGO_TARGET_DIR. Pair k runs
# seed first-seed + k (default 1001) untraced for `seconds` (default 24) on
# both sides, the parent first on even k and the change first on odd k.
# Prints one line per pair, then each side's median and quartiles, the
# change's wins on pkts_per_s and, from ten pairs on, whether the rule
# holds. For each other end-to-end metric (all lower-is-better) it prints
# how many pairs the change read worse in, and flags the metric when the
# change's median lies above the parent's upper quartile. The temporary directory is removed on exit; the checkout is left
# untouched. Run nothing else meanwhile: wallclock_2t occupies two CPUs.
set -euo pipefail
if [ $# -lt 4 ]; then
    sed -n '7p' "$0" >&2
    exit 2
fi
parent=$1 change=$2 workload=$3 pairs=$4 seconds=${5:-24} seed0=${6:-1001}
cd "$(git rev-parse --show-toplevel)"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for side in parent change; do
    mkdir "$tmp/$side"
    git archive "${!side}" | tar -x -C "$tmp/$side"
    # A smoke run builds the binary and checks it starts.
    CARGO_TARGET_DIR="$tmp/$side.target" "$tmp/$side/benchmark/run.sh" \
        --smoke --workload "$workload" > /dev/null
done

run() { # <side> <seed>: the run's JSON result line
    CARGO_TARGET_DIR="$tmp/$1.target" "$tmp/$1/benchmark/run.sh" --workload "$workload" \
        --seed "$2" --seconds "$seconds" --trace 0 | tail -n 1
}

for ((k = 0; k < pairs; k++)); do
    seed=$((seed0 + k))
    if ((k % 2 == 0)); then
        p=$(run parent "$seed")
        c=$(run change "$seed")
    else
        c=$(run change "$seed")
        p=$(run parent "$seed")
    fi
    printf '%s\t%s\t%s\n' "$seed" "$p" "$c"
done | python3 -c '
import json, statistics, sys
keys = ("pkts_per_s", "ns_per_pkt_p50", "setup_s", "peak_rss_mb")
runs = {"parent": [], "change": []}
def cells(r):
    m = r["metrics"]
    return "%9.3fM %7.1fns %8.5fs %6.1fMiB %s" % (m["pkts_per_s"]["value"] / 1e6,
        m["ns_per_pkt_p50"]["value"], m["setup_s"]["value"], m["peak_rss_mb"]["value"],
        r["correct"] and r["failed"] == 0)
print("seed   side: pkts_per_s ns_per_pkt_p50 setup_s peak_rss_mb correct")
for line in sys.stdin:
    seed, p, c = line.rstrip("\n").split("\t")
    p, c = json.loads(p), json.loads(c)
    runs["parent"].append(p); runs["change"].append(c)
    print(seed, " parent:", cells(p), "| change:", cells(c), flush=True)
stats = {}
for side, rs in runs.items():
    for key in keys:
        xs = [r["metrics"][key]["value"] for r in rs]
        q1, med, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
        stats[side, key] = (q1, med, q3)
        print("%-6s %-14s median %.6g  quartiles %.6g .. %.6g" % (side, key, med, q1, q3))
val = lambda side, key, i: runs[side][i]["metrics"][key]["value"]
n = len(runs["parent"])
wins = sum(val("change", "pkts_per_s", i) > val("parent", "pkts_per_s", i) for i in range(n))
q1, pmed, q3 = stats["parent", "pkts_per_s"]
cmed = stats["change", "pkts_per_s"][1]
holds = n >= 10 and 10 * wins >= 9 * n and cmed - pmed > q3 - q1
print("pkts_per_s: change wins %d/%d, median gap %+.4g vs parent IQR %.4g: gain %s"
      % (wins, n, cmed - pmed, q3 - q1, "holds" if holds else
         "does not hold" if n >= 10 else "not judged (fewer than ten pairs)"))
for key in keys[1:]:
    worse = sum(val("change", key, i) > val("parent", key, i) for i in range(n))
    q1, pmed, q3 = stats["parent", key]
    cmed = stats["change", key][1]
    print("%s: change worse in %d/%d, median %.6g vs parent %.6g (quartiles %.6g .. %.6g)%s"
          % (key, worse, n, cmed, pmed, q1, q3,
             ": WORSE, beyond the parent quartiles" if cmed > q3 else ""))
'
