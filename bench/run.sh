#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the given
# arguments. Build outputs and the Go build cache go to .bench_build/ at
# the checkout root, so nothing is written outside the checkout.
set -euo pipefail
bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local
# -buildvcs=false: a checkout git refuses to read must still build; the
# binary asks git for the commit itself and tolerates "unknown".
(cd "$bench_dir" && go build -buildvcs=false -o "$out/steelbench" .)
exec "$out/steelbench" "$@"
