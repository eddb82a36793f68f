#!/usr/bin/env bash
# Builds the benchmark's release binary and runs it. Run from the root of
# the repository (or of a checkout of it):
#
#   benchmark/run.sh                         every workload, untraced then
#                                            traced, each run in its own
#                                            process; table + one JSON document
#   benchmark/run.sh --workload sat_64B      one workload
#   benchmark/run.sh --smoke                 1/50 size, names/units/schema only
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                            one run; last line is the result
#   benchmark/run.sh compare A.json B.json   apply the bounds of BENCHMARK.json
#
# The binary lands in $CARGO_TARGET_DIR when set, else in benchmark/target.
# Nothing is fetched: every dependency is a path dependency on ../crates.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

target="${CARGO_TARGET_DIR:-benchmark/target}"
# Cargo's progress goes to stderr; stdout carries only the benchmark's own
# output, so its last line is the result.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml >&2

# glibc adapts its trim and mmap thresholds while a process runs, and
# whether a process ended up serving set-up's large buffers from the heap
# or from freshly mapped pages made setup_s bimodal from run to run (7 ms
# or 9-12 ms on demo_observed). Fixed thresholds keep every run in the
# first mode.
export MALLOC_TRIM_THRESHOLD_=268435456 MALLOC_MMAP_THRESHOLD_=268435456

exec "$target/release/fv-benchmark" "$@"
