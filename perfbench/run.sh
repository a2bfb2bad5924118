#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload scan-ooc --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under the build directory ($CARGO_TARGET_DIR when set, else
# .bench_build): the Go build cache, the binary, the generated graphs
# (removed when a run ends) and the traces of --trace 1 runs.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
# The go command keeps its own settings and telemetry under the user
# config directory; keep those inside the build directory too.
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS="" GOWORK=off GOTOOLCHAIN=local CGO_ENABLED=0

(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" --work "$build/perfbench-work" "$@"
