#!/usr/bin/env bash
# Perf gates; scripts/check_perf.py says what each section runs and gates.
# Usage: scripts/check_perf.sh [--rebaseline] [path/to/bench_perf_microbench]
# SERVE_BENCH, DEFENSE_BENCH, ADVERSARY_BENCH and PLANNER_BENCH override
# the other bench binaries' paths.
set -euo pipefail
cd "$(dirname "$0")/.."

if ! command -v python3 >/dev/null 2>&1; then
  echo "check_perf: SKIP (python3 unavailable for JSON parsing)" >&2
  exit 0
fi
exec python3 scripts/check_perf.py "$@"
