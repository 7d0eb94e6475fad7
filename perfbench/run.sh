#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload paper-emulab --seed 1 --seconds 25 --trace 0
#
# Run from the repository root. Every build artefact and cache stays under
# .bench_build/ in the checkout; the last line of standard output is the
# result record. Without the program's sources beside this directory the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/perfbench"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off

# The commit goes into the run record when the checkout is a git work tree
# of its own; otherwise the record identifies the sources by their digest.
commit=""
if top="$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" && [[ "$top" == "$root" ]]; then
	commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || true)"
fi

(cd "$root/perfbench" && go build -buildvcs=false -o "$build/perfbench/perfbench" .) >&2
exec "$build/perfbench/perfbench" --out "$build/perfbench" --commit "$commit" "$@"
