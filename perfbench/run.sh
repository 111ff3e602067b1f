#!/usr/bin/env bash
# Builds the ACE benchmark from the source tree it sits in and runs it
# with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload flat_table51 --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the repository. Every file it builds or
# writes stays under .bench_build/ there.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/perfbench" ]]; then
	echo "run.sh: run from the repository root (no go.mod or perfbench/ here)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -dir "$out" "$@"
