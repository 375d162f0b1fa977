#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the root of a checkout of the repository.  Build output goes
# to perfbench/_build, wall-clock span files to perfbench/out; the result
# is the last line of standard output.  See perfbench/README.md.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: run from the root of a repository checkout" >&2
  exit 2
fi
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)" || true

# --cache=disabled keeps the build from writing to dune's shared cache
# outside the checkout.
dune build --root . --profile release --build-dir "$PWD/perfbench/_build" -j 2 \
  --cache=disabled ./perfbench/main.exe 1>&2
exec perfbench/_build/default/perfbench/main.exe --out perfbench/out "$@"
