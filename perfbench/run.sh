#!/usr/bin/env bash
# Builds the benchmark from source and runs it:
#
#   bash perfbench/run.sh --workload fleet-steady --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every file the build and the run write
# (Go build cache, binary, temporary directories, span dumps) lands under
# .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
out="${root}/.bench_build"
mkdir -p "${out}/tmp" "${out}/config"

export GOCACHE="${out}/gocache"
export GOMODCACHE="${out}/gomodcache"
export GOPATH="${out}/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOENV=off
export XDG_CONFIG_HOME="${out}/config"
export TMPDIR="${out}/tmp"

(cd "${root}/perfbench" && go build -o "${out}/perfbench" .)
exec "${out}/perfbench" "$@"
