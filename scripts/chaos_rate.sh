#!/usr/bin/env sh
# Chaos failure rates of two revisions: `ftvod-cli chaos --summary` over the
# same seeds, built at <rev-a> and at <rev-b>. Prints, per oracle invariant,
# the failing campaigns on each side, the difference and both 95 % Wilson
# intervals, then the seeds whose verdict flipped each way.
#
#   sh scripts/chaos_rate.sh <rev-a> <rev-b> [--seed S] [--seeds N]
#
# Defaults: --seed 2001 --seeds 4000 (about 3 min per side once built). Each
# revision is a `git archive` under target/chaos_rate/<a|b>, built --offline
# with its own CARGO_TARGET_DIR beside it, the way ab.sh builds its parent;
# commit a change before comparing it. Each side's full output is left in
# target/chaos_rate/<a|b>.txt. Not part of tier-1.
set -eu

cd "$(dirname "$0")/.."

usage='usage: chaos_rate.sh <rev-a> <rev-b> [--seed S] [--seeds N]'
rev_a=${1:?$usage}
rev_b=${2:?$usage}
shift 2
seed=2001
seeds=4000
while [ $# -gt 0 ]; do
    case $1 in
    --seed) seed=${2:?--seed needs a value} ;;
    --seeds) seeds=${2:?--seeds needs a value} ;;
    *)
        echo "chaos_rate.sh: unknown argument $1" >&2
        exit 2
        ;;
    esac
    shift 2
done

dir=$PWD/target/chaos_rate
mkdir -p "$dir"

# Builds revision $2 as side $1 and runs the sweep into $dir/$1.txt. A sweep
# with a failing campaign exits 1; any other non-zero status is an error.
side() {
    rm -rf "${dir:?}/$1"
    mkdir -p "$dir/$1"
    git archive "$2" | tar -x -C "$dir/$1"
    CARGO_TARGET_DIR=$dir/$1-target cargo build --release --quiet --offline \
        --manifest-path "$dir/$1/Cargo.toml" --bin ftvod-cli
    status=0
    "$dir/$1-target/release/ftvod-cli" chaos --seed "$seed" --seeds "$seeds" --summary \
        >"$dir/$1.txt" 2>"$dir/$1.stderr" || status=$?
    if [ "$status" -gt 1 ]; then
        cat "$dir/$1.stderr" >&2
        echo "chaos_rate.sh: chaos at $2 exited $status" >&2
        exit 1
    fi
}

commit_a=$(git rev-parse --short "$rev_a^{commit}")
commit_b=$(git rev-parse --short "$rev_b^{commit}")
side a "$commit_a"
side b "$commit_b"

echo "chaos_rate.sh --seed $seed --seeds $seeds: A $commit_a vs B $commit_b"
awk -v a="$commit_a" -v b="$commit_b" '
FNR == 1 { s = (FILENAME ~ /\/a\.txt$/) ? "A" : "B" }
$1 == "seed" && $2 ~ /^[0-9]+:$/ {
    n = substr($2, 1, length($2) - 1)
    verdict[s, n] = $3
    if (s == "A")
        order[++seeds] = n
    if ($3 != "PASS")
        failing[s]++
}
$3 == "/" && $5 == "failed" {
    if (!($1 in known)) {
        known[$1] = 1
        names[++invariants] = $1
    }
    count[s, $1] = $2
    runs = $4
    wilson[s, $1] = $8 " " $9
}
END {
    if (invariants == 0) {
        print "chaos_rate.sh: a side printed no --summary lines" > "/dev/stderr"
        exit 1
    }
    printf "A %s: %d of %d campaigns fail\n", a, failing["A"], runs
    printf "B %s: %d of %d campaigns fail\n", b, failing["B"], runs
    printf "\n%-30s %6s %6s %6s   %-18s   %s\n", "invariant", "A", "B", "B-A",
        "A 95% Wilson", "B 95% Wilson"
    for (i = 1; i <= invariants; i++) {
        k = names[i]
        printf "%-30s %6d %6d %+6d   %-18s   %s\n", k, count["A", k], count["B", k],
            count["B", k] - count["A", k], wilson["A", k], wilson["B", k]
    }
    for (pass = 0; pass <= 1; pass++) {
        flips = 0
        list = ""
        for (i = 1; i <= seeds; i++) {
            n = order[i]
            va = verdict["A", n]
            vb = verdict["B", n]
            if ((pass && va != "PASS" && vb == "PASS") || (!pass && va == "PASS" && vb != "PASS")) {
                flips++
                list = list sprintf("  seed %s: %s -> %s\n", n, va, vb)
            }
        }
        printf "\n%s: %d seed(s)\n%s", pass ? "FAIL -> PASS" : "PASS -> FAIL", flips, list
    }
}' "$dir/a.txt" "$dir/b.txt"
