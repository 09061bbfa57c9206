#!/usr/bin/env bash
# Same-commit repeatability check: runs the suite 2×k times as two
# interleaved sets and prints, per workload and end-to-end metric, both
# medians, their difference, the quartile spreads and PASS/FAIL.
#
#   benchmarks/aa.sh [k] [extra flags]     k defaults to 5
#   benchmarks/aa.sh 10 -vary-seed         the acceptance procedure: ten seeds, twice
set -euo pipefail
k="${1:-5}"
shift || true
exec bash "$(dirname "${BASH_SOURCE[0]}")/run.sh" -aa "$k" "$@"
