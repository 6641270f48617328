#!/bin/sh
# Builds the benchmark from source and runs it; every argument is passed
# through (see main.ml).  Run from the repository root or anywhere else:
#
#   sh perfbench/run.sh --workload signoff --seed 1 --seconds 20 --trace 0
#
# Build output goes to standard error, so the result line stays the last
# line of standard output.  The dune cache is off so the build writes
# only under the checkout.
set -e
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: needs the repository's sources next to perfbench/" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
