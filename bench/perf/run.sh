#!/usr/bin/env bash
# Build ecoperf into build-perf/ (untimed; incremental after the first
# run), then run it with the given arguments. From the repository root:
#
#   bench/perf/run.sh --workload sim_tenants --seed 7 --seconds 30 --trace 0
#   bench/perf/run.sh --workload=all --repeat=5 --report=build-perf/report.json
#   bench/perf/run.sh --workload=all --smoke
#
# Build output goes to stderr, so the last stdout line is ecoperf's
# JSON result. See bench/perf/README.md for the flags and metrics.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
if [ ! -f src/CMakeLists.txt ]; then
  echo "run.sh: no src/ under $root; run from a full checkout" >&2
  exit 2
fi

build=build-perf
# Keep the compiler's temporary files inside the checkout too.
export TMPDIR="$root/$build/tmp"
mkdir -p "$TMPDIR"
if [ ! -f "$build/CMakeCache.txt" ]; then
  generator=()
  if command -v ninja >/dev/null 2>&1; then
    generator=(-G Ninja)
  fi
  cmake -S bench/perf -B "$build" ${generator[@]+"${generator[@]}"} >&2
fi
cmake --build "$build" -j4 >&2
exec "$build/ecoperf" "$@"
