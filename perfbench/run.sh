#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run it from the
# repository root; every flag passes through to the benchmark:
#
#   bash perfbench/run.sh --workload fanout --seed 1 --seconds 10 --trace 0
#
# The build, its caches and the traced run's span files stay inside
# .bench_build/ at the root.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/perfbench/go.mod" ]; then
	echo "run.sh: run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOPROXY=off GOWORK=off \
	GOTOOLCHAIN=local CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
