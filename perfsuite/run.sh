#!/usr/bin/env bash
# Build the verifier and the benchmark from source, then run the benchmark
# with the given arguments (see perfsuite/README.md).  Run from the root of
# the repository:
#
#   bash perfsuite/run.sh --workload images --seed 1 --seconds 25 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
# Keep every build artefact inside the checkout.
export DUNE_CACHE=disabled
dune build --root . ./perfsuite/suite.exe ./bin/icvd.exe 1>&2
run=(./_build/default/perfsuite/suite.exe --icvd ./_build/default/bin/icvd.exe "$@")
# Address-space randomisation moves the points where the OCaml runtime
# collects garbage, and with them how many BDD nodes are reclaimed and
# created again; with it off, node counts repeat exactly.  Where the
# system does not allow turning it off, run with it on.
if setarch "$(uname -m)" -R true 2>/dev/null; then
  exec setarch "$(uname -m)" -R "${run[@]}"
fi
exec "${run[@]}"
