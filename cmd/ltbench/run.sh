#!/usr/bin/env bash
# Builds ltbench from source and runs it with the given arguments.
#
# Run from the repository root:
#
#	bash cmd/ltbench/run.sh --workload serve_hits --seed 1 --seconds 25 --trace 0
#	bash cmd/ltbench/run.sh --seed 1            # every workload, one child process each
#
# The Go build cache, the binary and the benchmark's temporary stores all
# live under .bench_build/ in the current directory, so nothing is read
# from or written to the user's home. Fails (non-zero, no result line)
# when the repository's own sources are not there to build against.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C cmd/ltbench build -o "$out/ltbench" .
exec "$out/ltbench" "$@"
