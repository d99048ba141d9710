#!/usr/bin/env bash
# Build the benchmark and the mpsgen daemon from source, then run one
# workload.  Run from the root of the repository:
#
#   bash perfbench/run.sh --workload walk-unix --seed 1 --seconds 10 --trace 0
#
# The build's output goes to stderr, so the last line of stdout is the
# benchmark's JSON result.
set -euo pipefail
# keep every build output inside the checkout: no shared dune cache
export DUNE_CACHE=disabled
dune build --root . perfbench/main.exe bin/mpsgen.exe 1>&2
commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
exec ./_build/default/perfbench/main.exe --mpsgen ./_build/default/bin/mpsgen.exe \
  --commit "$commit" "$@"
