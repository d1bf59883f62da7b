#!/usr/bin/env bash
# Builds gcserved and the benchmark from the source tree this script
# sits in, then runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload hot-hits --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build output, the Go build
# cache and the benchmark's scratch files stay under .bench_build/.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"

if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/gcserved" ]; then
	echo "perfbench: run from the repository root (no go.mod or cmd/gcserved here)" >&2
	exit 2
fi
mkdir -p "$out/bin" "$out/gocache" "$out/gomodcache" "$out/tmp"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=

go build -o "$out/bin/gcserved" ./cmd/gcserved >&2
(cd "$bench" && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" --bin "$out/bin" --scratch "$out/tmp" "$@"
