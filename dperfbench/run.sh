#!/usr/bin/env bash
# Builds dperfbench and cmd/dperfd from this checkout, then runs one
# benchmark invocation. Run it from the repository root:
#
#   bash dperfbench/run.sh --workload new-trace --seed 1 --seconds 10 --trace 0
#
# Every build product, cache and temporary file stays under
# .bench_build/ in the checkout.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
# The go command keeps its telemetry counters under the user config
# directory; point that into the build directory too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd dperfbench && go build -o "$out/dperfbench" .) >&2
go build -o "$out/dperfd" ./cmd/dperfd >&2
exec "$out/dperfbench" -root "$PWD" -dperfd "$out/dperfd" "$@"
