#!/usr/bin/env sh
# Workspace gate: formatting, lints (warnings are errors), tests.
# Run from the repository root:  sh scripts/check.sh
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test"
cargo test --workspace -q

# The benchmark is a separate package on the crates' public API: a change
# that breaks it fails here, not only in scripts/golden.sh.
echo "==> benchmark compiles"
cargo check --offline --manifest-path benchmark/Cargo.toml --all-targets

echo "==> cargo doc (no deps)"
cargo doc --workspace --no-deps --quiet

# The sampler (scripts/profile.sh), the A/B driver (scripts/ab.sh) and the
# chaos-rate driver (scripts/chaos_rate.sh) are not part of the gate; keep
# them parsing and the shim compiling.
echo "==> profile.sh, ab.sh and chaos_rate.sh parse, the shim compiles"
sh -n scripts/profile.sh
sh -n scripts/ab.sh
sh -n scripts/chaos_rate.sh
if command -v gcc >/dev/null; then
    mkdir -p target/profile
    gcc -O2 -Wall -shared -fPIC -o target/profile/sigprof_shim.so scripts/sigprof_shim.c
fi

echo "all checks passed"
