#!/usr/bin/env bash
# Build, unit tests, and a smoke of every workload + the ledger that must
# pass `check`. Run from anywhere; CI can call this as one step.
set -euo pipefail
cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml
cargo build --release --offline --manifest-path "$manifest"
cargo test --release --offline --manifest-path "$manifest"
out=benchmark/results/check.$$.jsonl
trap 'rm -f "$out"' EXIT
bench() { cargo run --release --offline --quiet --manifest-path "$manifest" -- "$@"; }
bench run --smoke --seconds 1 --seed 3 --out "$out" > /dev/null
bench run --smoke --seconds 1 --seed 3 --trace --out "$out" > /dev/null
bench ledger --smoke --out "$out" > /dev/null
bench list > /dev/null
bench check "$out"
