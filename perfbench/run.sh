#!/bin/sh
# Build the benchmark from source, then run it.
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the repository root; everything it builds or writes stays under
# _build/ and perfbench/out/.
set -e
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
