#!/usr/bin/env bash
# Builds addict-serve from the repository workspace and this benchmark
# package, then runs the benchmark. Arguments pass through:
#   bash jobbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output lands in $CARGO_TARGET_DIR (default: target/).
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-target}"
case "$target" in
/*) ;;
*) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
cargo build --offline --quiet --release -p addict-service --bin addict-serve >&2
cargo build --offline --quiet --release --manifest-path jobbench/Cargo.toml >&2
exec "$target/release/addict-jobbench" --server "$target/release/addict-serve" "$@"
