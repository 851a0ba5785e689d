#!/usr/bin/env bash
# Builds linkbench from the checkout's sources and runs it with the given
# arguments, e.g.
#
#   bash linkbench/run.sh --workload solve-dense --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. The Go build and module caches, temporary
# files and the binary all stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/linkbench/go.mod" || ! -f "$root/go.mod" ]]; then
	echo "linkbench: run from the repository root (needs go.mod and linkbench/go.mod)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOENV=off GOTELEMETRY=off

(cd "$root/linkbench" && go build -o "$build/linkbench" .)
exec "$build/linkbench" "$@"
