#!/usr/bin/env bash
# Builds ftcserve and the serving benchmark from the checkout this script
# sits in, then runs one benchmark invocation. Run it from the checkout root:
#
#	bash servebench/run.sh --workload bin-hot --seed 1 --seconds 20 --trace 0
#
# Every build product, Go build cache, Go config and telemetry file, and run
# file stays under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"

# Without the program there is nothing to build or measure: stop before any
# go command runs.
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/ftcserve" ]]; then
	echo "servebench: $root holds no ftcserve source (go.mod, cmd/ftcserve); run from the checkout root" >&2
	exit 2
fi

mkdir -p "$out/tmp" "$out/config/go/telemetry"
# The go command otherwise forks a detached telemetry sidecar that outlives
# this script and may try to fetch its upload config; turn it off, and keep
# every module lookup local.
printf 'off' >"$out/config/go/telemetry/mode"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOWORK=off GOTOOLCHAIN=local GOFLAGS= \
	GOPROXY=off GOSUMDB=off

go build -C "$root" -o "$out/ftcserve" ./cmd/ftcserve >&2
go build -C "$here" -o "$out/servebench" . >&2

exec "$out/servebench" -ftcserve "$out/ftcserve" -workdir "$out" "$@"
