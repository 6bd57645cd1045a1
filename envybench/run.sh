#!/usr/bin/env bash
# Builds the envybench benchmark from source and runs it. Every argument
# is passed through, e.g.
#
#   bash envybench/run.sh --workload tpca_small_sat --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and CPU profiles stay in .bench_build
# at the repository root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"

# Keep every file the toolchain writes inside the checkout.
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR=""
export XDG_CONFIG_HOME="$out/config"
export PPROF_TMPDIR="$out"
export GOFLAGS="-buildvcs=false"

commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
go build -C "$root/envybench" -o "$out/envybench" .
cd "$root"
exec "$out/envybench" --commit "$commit" --outdir "$out" "$@"
