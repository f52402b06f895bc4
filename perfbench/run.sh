#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it:
#
#   bash perfbench/run.sh --workload paper-sim --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. The build cache, the binary and the span
# files of traced runs go under $CARGO_TARGET_DIR (default .bench_build),
# so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/server" ]]; then
	echo "perfbench: run from the root of a parsim checkout (no go.mod or internal/server here)" >&2
	exit 2
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$build" = /* ]] || build="$root/$build"
mkdir -p "$build/tmp"

commit=unknown
if top=$(git -C "$root" rev-parse --show-toplevel 2>/dev/null) && [[ "$top" == "$root" ]]; then
	commit=$(git -C "$root" rev-parse HEAD)
	[[ -z "$(git -C "$root" status --porcelain --untracked-files=no)" ]] || commit="$commit+modified"
fi

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=
(cd "$root/perfbench" && go build -buildvcs=false -o "$build/perfbench" .) >&2
exec "$build/perfbench" --out "$build" --commit "$commit" "$@"
