#!/usr/bin/env bash
# Builds the benchmark from source into the checkout's .bench_build and runs
# it from the checkout root. The Go build cache lives there too, so that
# nothing is read or written outside the checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build=$root/.bench_build
mkdir -p "$build"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOFLAGS=-buildvcs=false \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$here" && go build -o "$build/atlahs-bench" .)
cd "$root"
exec "$build/atlahs-bench" "$@"
