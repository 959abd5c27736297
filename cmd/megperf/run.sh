#!/usr/bin/env bash
# Builds the megperf benchmark from source and runs it:
#
#   bash cmd/megperf/run.sh --workload geom-full --seed 7 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, temp files, the binary,
# trace files) stays under .bench_build/ at the root of the checkout. The
# benchmark is its own module that reaches the simulator's packages
# through "replace meg => ../../", so it only builds inside a full checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/../.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/megperf" .) >&2
cd "$root"
exec "$build/megperf" "$@"
