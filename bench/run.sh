#!/usr/bin/env bash
# Builds the generator, its reference server and the two real servers from
# this checkout's source into .bench_build/ (Go's caches included, so nothing
# is written outside the checkout) and runs the generator from the repository
# root. A warm build takes a fraction of a second; the first one compiles the
# standard library.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build=$root/.bench_build
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE=$build/gocache GOMODCACHE=$build/gomod GOPATH=$build/gopath
export GOTMPDIR=$build/tmp GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$build/bin/" . ./refserver webdbsec/cmd/securedb webdbsec/cmd/uddiserver) >&2
cd "$root"
exec "$build/bin/bench" -bin "$build/bin" "$@"
