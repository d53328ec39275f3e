#!/usr/bin/env bash
# Builds the pciesim benchmark from the checkout this script sits in and
# runs it, passing every argument through:
#
#   bash perfbench/run.sh --workload fabric18 --seed 1 --seconds 25 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files)
# stays under .bench_build/ at the root of the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOTOOLCHAIN=local
export GOENV=off
export GOFLAGS=
export GOCACHE="$out/go-cache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"

commit=unknown
if [ -e "$root/.git" ]; then
	commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi
(cd "$root/perfbench" && go build -trimpath -ldflags "-X main.commit=$commit" -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
