#!/usr/bin/env bash
# Builds the layered benchmark and the dlvpd daemon from the source in the
# current checkout, then runs one measurement.
#
# Usage (from the repository root):
#   bash perfbench/run.sh --workload regen|sweep|serve --seed N --seconds S --trace 0|1
#
# Build outputs, the Go build cache, CPU profiles and span dumps all stay
# under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
# The go command's caches, temporary files and local telemetry counters
# (kept under the user config directory) all go to the checkout.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod

go -C "$root/perfbench" build -o "$out/perfbench" . >&2
go -C "$root/perfbench" build -o "$out/dlvpd" dlvp/cmd/dlvpd >&2

exec "$out/perfbench" -dlvpd "$out/dlvpd" -out "$out/results" "$@"
