#!/usr/bin/env bash
# Flat profile of one untraced benchmark run, for a host without perf or
# hardware counters.
#
#   scripts/profile.sh <workload> [seconds] [seed]
#
# Builds the benchmark as benchmark/run.sh does, then runs it once
# (`--trace 0`, default 8 s, seed 1) with a sampler preloaded: a small
# shared object, compiled here with the system cc, that arms a
# CLOCK_MONOTONIC timer at 10 kHz in its own process and records the
# interrupted instruction pointer from each SIGPROF's ucontext. (A
# CLOCK_PROCESS_CPUTIME_ID timer fired only about 250 times a second on a
# shared 2-vCPU host.) At exit it writes the samples and /proc/self/maps;
# this script maps each address to a symbol with `nm -C -n` for the
# benchmark binary and `nm -D` for shared objects (through `readelf -l`'s
# segments, since a segment's address may differ from its offset in the
# file), and prints the symbols
# that took the most samples. A symbol's share counts its own instructions
# only, inlined callees included, out-of-line callees not. The signal may
# land on any thread of the process, so on wallclock_2t the profile mixes
# both workers.
set -euo pipefail
if [ $# -lt 1 ]; then
    sed -n '5p' "$0" >&2
    exit 2
fi
workload=$1 seconds=${2:-8} seed=${3:-1}
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml
binary="$(realpath "$target/release/fv-benchmark")"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

cat > "$tmp/sampler.c" <<'C'
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <string.h>
#include <time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1 << 20)
static unsigned long samples[MAX_SAMPLES];
static unsigned long taken;
static timer_t timer;

static void on_tick(int sig, siginfo_t *info, void *context) {
    (void)sig;
    (void)info;
    unsigned long i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES)
        samples[i] = ((ucontext_t *)context)->uc_mcontext.gregs[REG_RIP];
}

__attribute__((constructor)) static void start(void) {
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_tick;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct sigevent ev;
    memset(&ev, 0, sizeof ev);
    ev.sigev_notify = SIGEV_SIGNAL;
    ev.sigev_signo = SIGPROF;
    timer_create(CLOCK_MONOTONIC, &ev, &timer);
    struct itimerspec every = {{0, 100000}, {0, 100000}};
    timer_settime(timer, 0, &every, NULL);
}

__attribute__((destructor)) static void stop(void) {
    timer_delete(timer);
    unsigned long n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    FILE *out = fopen(OUT "/samples", "w");
    for (unsigned long i = 0; i < n; i++)
        fprintf(out, "%lx\n", samples[i]);
    fclose(out);
    FILE *maps = fopen("/proc/self/maps", "r"), *copy = fopen(OUT "/maps", "w");
    char line[4096];
    while (fgets(line, sizeof line, maps))
        fputs(line, copy);
    fclose(maps);
    fclose(copy);
}
C
cc -O2 -shared -fPIC -DOUT="\"$tmp\"" -o "$tmp/sampler.so" "$tmp/sampler.c"

# The environment benchmark/run.sh gives the binary.
MALLOC_TRIM_THRESHOLD_=268435456 MALLOC_MMAP_THRESHOLD_=268435456 LD_PRELOAD="$tmp/sampler.so" \
    "$binary" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
    | tail -n 1 > "$tmp/result"

python3 - "$tmp" "$binary" <<'PY'
import bisect, collections, json, os, re, subprocess, sys
tmp, binary = sys.argv[1:]
maps = []
for line in open(os.path.join(tmp, "maps")):
    f = line.split()
    if len(f) == 6 and "x" in f[1]:
        lo, hi = (int(x, 16) for x in f[0].split("-"))
        maps.append((lo, hi, int(f[2], 16), f[5]))
tables = {}
def symbols(path):
    # (start, end, name) sorted by start, addresses as in the file.
    if path not in tables:
        flags = ["-C", "-n", "-S", "--defined-only"] + (["-D"] if path != binary else [])
        rows = []
        run = subprocess.run(["nm", *flags, path], capture_output=True, text=True)
        for line in run.stdout.splitlines():
            m = re.match(r"([0-9a-f]+) ([0-9a-f]+) [tTwWiI] (.*)$", line)
            if m:
                start = int(m.group(1), 16)
                rows.append((start, start + int(m.group(2), 16), m.group(3)))
        tables[path] = (rows, [r[0] for r in rows])
    return tables[path]
loads = {}
def segments(path):
    # {page-aligned file offset: page-aligned virtual address} of each LOAD
    # segment: a mapping's offset names its segment, and the linker may
    # place a segment at another address than its offset in the file.
    if path not in loads:
        run = subprocess.run(["readelf", "-lW", path], capture_output=True, text=True)
        loads[path] = {int(m.group(1), 16) & ~0xfff: int(m.group(2), 16) & ~0xfff
                       for m in re.finditer(r"LOAD\s+(0x[0-9a-f]+)\s+(0x[0-9a-f]+)", run.stdout)}
    return loads[path]
counts = collections.Counter()
total = 0
for line in open(os.path.join(tmp, "samples")):
    ip = int(line, 16)
    total += 1
    where = next((m for m in maps if m[0] <= ip < m[1]), None)
    if where is None:
        counts["[unmapped]"] += 1
        continue
    lo, _, offset, path = where
    addr = ip - lo + segments(path).get(offset, offset)
    rows, starts = symbols(path)
    i = bisect.bisect_right(starts, addr) - 1
    name = rows[i][2] if i >= 0 and addr < rows[i][1] else "?"
    counts[name if path == binary else f"{name} [{os.path.basename(path)}]"] += 1
result = json.loads(open(os.path.join(tmp, "result")).read())
pps = result["metrics"]["pkts_per_s"]["value"]
print(f"{total} samples at 10 kHz; pkts_per_s {pps / 1e6:.3f} M, correct {result['correct']}")
for name, n in counts.most_common(30):
    print(f"{100 * n / total:6.2f}% {n:7d}  {name}")
PY
