#!/usr/bin/env bash
# Build the pipeline benchmark from source, then run it with the given
# arguments.  Run from the root of the repository:
#
#   bash bench/pipeline/run.sh --workload dns-std --seed 1 --seconds 20 --trace 0
#   bash bench/pipeline/run.sh --seed 1          # a full set, all workloads
set -eu

if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "run.sh: run from the root of the repository (no dune-project or lib/ here)" >&2
  exit 2
fi
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi

# Build outputs stay in _build; dune's shared cache would write to $HOME.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bench/pipeline/pipeline.exe >&2
exec ./_build/default/bench/pipeline/pipeline.exe "$@"
