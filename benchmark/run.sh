#!/usr/bin/env bash
# The repo's benchmark. Builds the two binaries of this package offline and
# runs the end-to-end driver with the arguments given:
#
#   benchmark/run.sh [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
#   benchmark/run.sh --selftest [--seed N] [--seconds S]
#
# No --workload runs all five. The last line of standard output is the JSON
# result of the (last) workload; see benchmark/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
build() {
    cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bin "$1"
}

build zeus-bench-e2e

# The layer probes reach into every crate, so they are built on their own
# and only for a traced run: if they stop compiling, the per-layer probe
# metrics go absent (with a warning) and the end-to-end run still succeeds.
traced=0
previous=""
for arg in "$@"; do
    if [[ "$previous" == "--trace" && "$arg" == "1" ]]; then traced=1; fi
    previous="$arg"
done
if [[ "$traced" == 1 ]] && ! build zeus-bench-probes; then
    echo "warning: zeus-bench-probes did not build; its per-layer metrics will be absent" >&2
    rm -f "$target/release/zeus-bench-probes"
fi

exec "$target/release/zeus-bench-e2e" "$@"
