#!/usr/bin/env bash
# Build the benchmark and the CLI it drives, then run one workload:
#
#   bash perfbench/run.sh --workload search-mmap|serve-live|routed-read \
#     --seed N --seconds S --trace 0|1
#
# Run from the root of a checkout. Build output goes to stderr; the
# last line of stdout is the run's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . ./perfbench/main.exe ./bin/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
