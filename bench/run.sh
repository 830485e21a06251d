#!/usr/bin/env bash
# The repo benchmark. Builds the release `uprov-service` binary and the
# benchmark binary, then either
#
#   bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run; the last line of standard output is the result object
#       BENCHMARK.json describes (this is the form the driver calls), or
#
#   bench/run.sh [--seed N] [--seconds S] [--trace] [--smoke] [--repeat K]
#       every workload through bench/suite.py: all metrics by name, and
#       with --repeat K the run-to-run spread against each metric's bound.
#
# Run from the repository root. See bench/README.md.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")

# Both builds share one target directory: the driver's (relative to the
# checkout it runs us from), else bench/target.
CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-$here/target}
case $CARGO_TARGET_DIR in
    /*) ;;
    *) CARGO_TARGET_DIR=$PWD/$CARGO_TARGET_DIR ;;
esac
export CARGO_TARGET_DIR

# No-ops after the first run in a checkout. Build output goes to stderr,
# so standard output stays the benchmark's own.
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p uprov-service --bin uprov-service >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

bench=("$CARGO_TARGET_DIR/release/uprov-bench"
    --service-bin "$CARGO_TARGET_DIR/release/uprov-service" --out "$here/out")

for arg in "$@"; do
    if [[ $arg == --workload ]]; then
        exec "${bench[@]}" "$@"
    fi
done
exec python3 "$here/suite.py" "$@" -- "${bench[@]}"
