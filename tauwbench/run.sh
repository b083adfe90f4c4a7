#!/usr/bin/env bash
# Builds tauserve and the benchmark harness from this checkout, then runs one
# workload. Run it from the repository root:
#
#   bash tauwbench/run.sh --workload stream-wire --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files, both binaries, and the
# harness's server logs, state dirs and span dumps.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/go-mod"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOMODCACHE="$out/go-mod" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/tauwbench" && go build -o "$out/tauwbench" .) >&2
(cd "$root" && go build -o "$out/tauserve" ./cmd/tauserve) >&2
cd "$root"
exec "$out/tauwbench" -bin "$out/tauserve" -workdir "$out/run" "$@"
