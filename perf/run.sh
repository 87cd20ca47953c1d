#!/usr/bin/env bash
# Builds the serving benchmark from the source checkout it runs in and runs
# it with the given arguments, e.g.
#
#   bash perf/run.sh --workload search-cold --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# current directory, which must be the repository root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/config"
# Keep the toolchain's cache and configuration inside the checkout.
export GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config"
(cd "$root/perf" && go build -o "$out/seaperf" .)
exec "$out/seaperf" --out "$out" "$@"
