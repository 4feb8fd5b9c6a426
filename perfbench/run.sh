#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it with the
# given arguments, for example:
#
#   bash perfbench/run.sh --workload tpcd-13k --seed 1 --seconds 8 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (the Go build cache and temporary files, the binary, the traced run's
# span files) stays under .bench_build/ in the current directory, or under
# $CARGO_TARGET_DIR when that is set.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod must exist)" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false

(cd "$root/perfbench" && go build -o "$out/perfbench" ./cmd/perfbench)
exec "$out/perfbench" --spans-dir "$out/spans" "$@"
