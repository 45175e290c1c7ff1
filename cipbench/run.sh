#!/usr/bin/env bash
# Builds cipbench and the cipnet server from the sources of this checkout
# into .bench_build/ (configured once; later runs only bring the build up
# to date), then runs cipbench with the given arguments:
#
#   bash cipbench/run.sh --workload flow --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr, so the last line on stdout is the result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${here}/../.bench_build"

if [[ ! -f "${build}/CMakeCache.txt" ]]; then
  cmake -S "${here}" -B "${build}" -DCMAKE_BUILD_TYPE=Release >&2
fi
jobs="$(nproc)"
cmake --build "${build}" -j "$(( jobs < 4 ? jobs : 4 ))" >&2
exec "${build}/cipbench" "$@"
