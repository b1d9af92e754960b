#!/usr/bin/env sh
# Local CI: formatting, the workspace lint wall, and the full test suite.
# Run from the repository root. Fails fast on the first broken gate.
set -eu

# The tree as CI found it. No step may rewrite a tracked file or leave
# an untracked one behind, so checked-in artifacts and goldens stay
# byte-identical; a developer's own uncommitted edits are fine.
tree_before=$(mktemp)
trap 'rm -f "$tree_before"' EXIT
git status --porcelain > "$tree_before"

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

echo "==> chaos smoke (seeded fault injection over the image pipeline)"
cargo run -q -p oprc-bench --bin chaos_smoke -- target/trace_chaos.json

echo "==> flow doctor smoke (optimizer diagnostics OPRC050-053 + pinned JSON shape)"
cargo run -q -p oprc-bench --bin flow_doctor_smoke

echo "==> observability smoke (byte-stable profile/slo exports)"
cargo run -q --release -p oprc-bench --bin obs_smoke

echo "==> scenario soak gate (Zipf/flash-crowd/multi-tenant invariants + fairness comparisons)"
cargo run -q --release -p oprc-bench --bin scenario_soak -- --quick --check

echo "==> benchmark unit tests (its own package: a smoke pass of all six workloads with their oracles on)"
cargo test -q --release --manifest-path benchmark/Cargo.toml

echo "==> working tree unchanged (compared with the status taken at the top)"
if ! git status --porcelain | diff -u "$tree_before" -; then
    echo "CI changed the working tree (diff above: - before, + after)" >&2
    exit 1
fi

echo "==> CI green"
