#!/bin/sh
# Tier-1 gate: full workspace build + test, then a smoke run of the tables
# binary (Table 22, the Figure-of-Merit headline) on a small population.
set -eu

cargo build --release --workspace
cargo test -q

# Member suites whose assertions hold on any host (no wall-clock
# conditions): the goldens, the naive/fast-forward/memo differential, the
# zero-allocation checks, the trace-replay tests, and the sweep scheduler
# and service tests. Debug and release.
cargo test -q -p javaflow-fabric -p javaflow-analysis -p javaflow-bench -p javaflow-core
cargo test -q --release -p javaflow-fabric -p javaflow-analysis -p javaflow-bench -p javaflow-core

cargo run --release -p javaflow-bench --bin tables -- --synthetic 50 --table 22

echo "tier1: OK"
