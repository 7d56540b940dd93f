#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source into
# .bench_build/ at the root of the checkout (Go build cache included, so
# nothing outside the checkout is written) and runs it with the given flags.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build"
(
	cd "$here"
	GOCACHE="$build/go-cache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
		GOTOOLCHAIN=local GOFLAGS=-buildvcs=false \
		go build -o "$build/inlinered-benchmark" .
)
cd "$root"
exec "$build/inlinered-benchmark" "$@"
