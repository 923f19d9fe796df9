#!/usr/bin/env bash
# Runs the untraced set N times (default 2) and prints, per metric and
# workload, the median and the run-to-run spread against its bound;
# exits non-zero if a gated metric disagrees beyond its bound.
#
#   bash benchmark/repeat.sh [N] [more flags, e.g. -seed 7 -out spreads.json]
set -euo pipefail
n=${1:-2}
shift || true
exec bash "$(dirname "$0")/run.sh" -repeat "$n" "$@"
