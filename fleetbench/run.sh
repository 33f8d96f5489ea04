#!/usr/bin/env bash
# Build the analyzer and the benchmark from source, then run one
# workload:  bash fleetbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the repository root.  Build output goes to stderr; the last
# line of stdout is the result object.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . ./bin/tsa.exe ./fleetbench/bin/main.exe 1>&2
exec ./_build/default/fleetbench/bin/main.exe --tsa ./_build/default/bin/tsa.exe "$@"
