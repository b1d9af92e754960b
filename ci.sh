#!/usr/bin/env sh
# Local CI: formatting, the workspace lint wall, and the full test suite.
# Run from the repository root. Fails fast on the first broken gate.
set -eu

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rustdoc, warnings as errors (a dangling intra-doc link fails here)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo test -q"
cargo test -q

echo "==> concurrency conformance, serial rerun (catches order-dependent assertions)"
cargo test -q -p oprc-tests --test concurrent_invocation -- --test-threads=1

echo "==> telemetry smoke (image workload under tracing -> Chrome export)"
cargo run -q -p oprc-bench --bin trace_smoke -- target/trace_image.json

echo "==> chaos smoke (seeded fault injection over the image pipeline)"
cargo run -q -p oprc-bench --bin chaos_smoke -- target/trace_chaos.json

echo "==> flow doctor smoke (optimizer diagnostics OPRC050-053 + pinned JSON shape)"
cargo run -q -p oprc-bench --bin flow_doctor_smoke

echo "==> invoke hot-path gate (seeded; warm ns/op vs baseline + exact allocation budgets: warm invoke, per extra retry attempt, per batch=64 item + locks per batch)"
cargo run -q --release -p oprc-bench --bin invoke_hotpath -- --quick --check

echo "==> observability smoke (byte-stable profile/slo exports)"
cargo run -q --release -p oprc-bench --bin obs_smoke

echo "==> invoke throughput gate (workers x shards sweep + 1/2/4/8-node locality sweep; core-count-aware speedup and locality-gain gates)"
cargo run -q --release -p oprc-bench --bin invoke_throughput -- --quick --check

echo "==> scenario soak gate (Zipf/flash-crowd/multi-tenant invariants + fairness comparisons)"
cargo run -q --release -p oprc-bench --bin scenario_soak -- --quick --check

echo "==> benchmark unit tests (its own package: a smoke pass of all six workloads with their oracles on)"
cargo test -q --release --manifest-path benchmark/Cargo.toml

echo "==> CI green"
