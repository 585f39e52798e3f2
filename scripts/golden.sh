#!/usr/bin/env sh
# Golden-output gate: every deterministic CLI output must match the files
# checked in under tests/golden/ byte for byte, so a refactor that shifts
# behaviour *deterministically* (run A == run B, both != yesterday) fails.
# Run from anywhere:
#   sh scripts/golden.sh           verify against tests/golden/
#   sh scripts/golden.sh --bless   regenerate tests/golden/ (say why in the PR)
set -eu

cd "$(dirname "$0")/.."

cargo build --release --quiet
cli="$PWD/target/release/ftvod-cli"
golden=tests/golden
out="$PWD/target/golden"
rm -rf "$out"
mkdir -p "$out"

# Appends `ftvod-cli chaos ARGS...` to FILE, its stdout and then its stderr
# summary naming the failing seeds. A campaign of the sweep violates an
# invariant, so the CLI exits 1; any other status is an error.
chaos_fails() {
    file=$1
    shift
    status=0
    "$cli" chaos "$@" >>"$file" 2>"$out/stderr.txt" || status=$?
    if [ "$status" -ne 1 ]; then
        cat "$out/stderr.txt" >&2
        echo "golden.sh: chaos $* exited $status, not 1" >&2
        exit 1
    fi
    cat "$out/stderr.txt" >>"$file"
    rm "$out/stderr.txt"
}
# The first 25 campaigns; seed 10 fails `re-served-after-fault`.
chaos_fails "$out/chaos_25seeds.txt" --seeds 25
"$cli" chaos --seeds 1 --plan >"$out/chaos_seed1_plan.txt"
# The sweep where exclusive service fails (~3 s): partial merges and
# concurrent singletons, where the membership passes of the GCS tick act.
# Two of its campaigns violate an invariant (nine without the replica
# floor).
chaos_fails "$out/chaos_1001_100seeds.txt" --seed 1001 --seeds 100
# The same sweep ending with each invariant's failure rate (`--summary`).
chaos_fails "$out/chaos_1001_100seeds_summary.txt" --seed 1001 --seeds 100 --summary
# The 30 campaigns of `chaos --seed 1 --seeds 1000` that fail under the
# replica floor of two (ROADMAP, "Open items"), one run each (~1 s in
# all), with the verdict windows of their failures. A seed that a fix
# flips to PASS exits 0 and stops the script here: take it off the list in
# the same change.
for seed in 10 31 77 106 209 220 283 318 321 400 441 451 522 598 663 675 704 \
    729 733 766 777 797 818 832 872 892 925 926 940 953; do
    chaos_fails "$out/chaos_witnesses.txt" --seed "$seed" --seeds 1
done
"$cli" flash >"$out/flash.txt"
"$cli" flash --seed 1 --compare >"$out/flash_compare.txt"
"$cli" multidc --seeds 10 >"$out/multidc.txt"
"$cli" multidc --seed 42 --compare >"$out/multidc_compare.txt"
# Both placement policies at fleet size, where each one's retire rule
# acts (`predictive` also waits for a cold forecast before it retires).
for policy in reactive predictive; do
    "$cli" fleet --servers 8 --clients 320 --movies 12 --seed 1 --policy "$policy"
done >"$out/fleet_policies.txt"
# The CLI's fleet defaults (4 servers, 96 sessions, 6 movies, seed 42,
# reactive dynamic replication) at `small_fleet`'s cap: EXPERIMENTS.md E3.
"$cli" fleet --cap 12 >"$out/fleet_small.txt"
# One scripted session through pause, resume and a seek: the example CI
# runs, pinned here so a change to the client's VCR path shows.
cargo run --release --quiet --example vcr_session >"$out/vcr_session.txt"
# Every figure and table of the paper's evaluation, with its verdict
# lines; exits nonzero when a verdict differs from its expectation.
"$cli" experiment all >"$out/experiments.txt"

# The model checker's five CI scopes (~4 s): state and transition counts
# of the exhaustive membership check. The CI `model-check` job compares
# its own run with the same file.
{
    "$cli" check --nodes 3 --depth 8
    "$cli" check --nodes 3 --joiners 1 --depth 7
    "$cli" check --nodes 3 --leaver 1 --depth 8
    "$cli" check --nodes 3 --drops 2 --depth 8
    "$cli" check --nodes 4 --depth 6
} >"$out/check_scopes.txt"

# The repo benchmark's digest of every counter, report and oracle verdict
# of its four workloads (two passes each, ~20 s in all; the timings it
# prints are not kept). benchmark/ is a package of its own: it is built
# into benchmark/target/ and only invoked here.
for workload in steady_fleet paper_figs chaos_oracle surge_failover; do
    cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- \
        --workload "$workload" --seconds 1 | sed -n "s/^counters_digest /$workload /p"
done >"$out/benchmark_digests.txt"

# The preset traces are ~2 MB each: pin their checksums, not their bytes.
(
    cd "$out"
    "$cli" trace lan >trace_lan.jsonl
    "$cli" trace wan >trace_wan.jsonl
    "$cli" report lan --json >report_lan.json
    "$cli" report wan --json >report_wan.json
    sha256sum trace_lan.jsonl trace_wan.jsonl report_lan.json report_wan.json >SHA256SUMS
    rm trace_lan.jsonl trace_wan.jsonl report_lan.json report_wan.json
)

if [ "${1:-}" = "--bless" ]; then
    rm -rf "$golden"
    mkdir -p "$golden"
    cp "$out"/* "$golden"/
    echo "blessed $golden"
else
    diff -r "$golden" "$out"
    echo "golden outputs match"
fi
