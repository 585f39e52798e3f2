#!/usr/bin/env sh
# A/B of one repo-benchmark workload: the benchmark built at <parent-rev>
# against the one built from the working tree, run in alternating pairs and
# judged by the rule of /opt/skills/guides/choosing-metrics §8 — the change
# wins at least nine tenths of the pairs and the medians differ by more
# than the distance between the parent's quartiles.
#
#   sh scripts/ab.sh <parent-rev> <workload>|all [--pairs N] [--seed S] [--seconds S]
#
# `all` runs the four workloads in turn, each judged as above, and ends with
# one table of them: a change that claims a gain on one workload has to show
# the other three as well.
#
# The parent is a `git archive` of <parent-rev> under target/ab/parent (a
# plain copy: nothing is left in .git), each side has its own
# CARGO_TARGET_DIR under target/ab/, both build --offline, and nothing under
# benchmark/ is edited. Odd pairs run the parent first, even pairs the
# change. Every run is listed (and left in target/ab/runs_<workload>.txt);
# `--seconds` defaults to the benchmark's own. Not part of tier-1.
set -eu

cd "$(dirname "$0")/.."

usage='usage: ab.sh <parent-rev> <workload>|all [--pairs N] [--seed S] [--seconds S]'
rev=${1:?$usage}
workload=${2:?$usage}
shift 2
pairs=10
seed=0
seconds=
while [ $# -gt 0 ]; do
    case $1 in
    --pairs) pairs=${2:?--pairs needs a value} ;;
    --seed) seed=${2:?--seed needs a value} ;;
    --seconds) seconds=${2:?--seconds needs a value} ;;
    *)
        echo "ab.sh: unknown argument $1" >&2
        exit 2
        ;;
    esac
    shift 2
done

dir=$PWD/target/ab
commit=$(git rev-parse --short "$rev^{commit}")
rm -rf "$dir/parent"
mkdir -p "$dir/parent"
git archive "$commit" | tar -x -C "$dir/parent"
CARGO_TARGET_DIR=$dir/parent-target cargo build --release --quiet --offline \
    --manifest-path "$dir/parent/benchmark/Cargo.toml"
CARGO_TARGET_DIR=$dir/change-target cargo build --release --quiet --offline \
    --manifest-path benchmark/Cargo.toml

# One run of workload $name: "<side> <pair> <wall_s> <setup_s> <ttff_p50_s>
# <startup_ok_share> <displayed_share> <counters_digest>" appended to $runs.
run() {
    "$dir/$1-target/release/ftvod-benchmark" --workload "$name" --seed "$seed" \
        ${seconds:+--seconds "$seconds"} |
        awk -v side="$1" -v pair="$2" '
            $1 == "counters_digest" { digest = $2 }
            $1 ~ /^(wall_s|setup_s|ttff_p50_s|startup_ok_share|displayed_share)$/ { v[$1] = $2 }
            END {
                print side, pair, v["wall_s"], v["setup_s"], v["ttff_p50_s"],
                    v["startup_ok_share"], v["displayed_share"], digest
            }' >>"$runs"
}

# The pairs of workload $1, every run, the verdict per metric, and one row
# appended to summary.txt; fails if a simulated metric or the digest moved.
compare() {
    name=$1
    runs=$dir/runs_$name.txt
    : >"$runs"
    pair=1
    while [ "$pair" -le "$pairs" ]; do
        if [ $((pair % 2)) -eq 1 ]; then
            run parent "$pair"
            run change "$pair"
        else
            run change "$pair"
            run parent "$pair"
        fi
        pair=$((pair + 1))
    done

    echo "ab.sh $name --seed $seed${seconds:+ --seconds $seconds}: parent $commit vs the working tree, $pairs pair(s)"
    awk -v name="$name" -v summary="$dir/summary.txt" '
function quantile(a, n, q,    h, lo) {
    h = (n - 1) * q + 1
    lo = int(h)
    return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
}
# Sorts the n values of side s, metric m into sorted[]; n is small.
function sorted_of(s, m, n,    i, j, t) {
    for (i = 1; i <= n; i++)
        sorted[i] = val[s, m, i]
    for (i = 2; i <= n; i++)
        for (j = i; j > 1 && sorted[j - 1] > sorted[j]; j--) {
            t = sorted[j]; sorted[j] = sorted[j - 1]; sorted[j - 1] = t
        }
}
{
    n = $2
    val[$1, "wall_s", n] = $3
    val[$1, "setup_s", n] = $4
    same = $5 " " $6 " " $7 " " $8
    if (NR == 1)
        first = same
    else if (same != first)
        moved = 1
    if (NR % 2 == 1)
        printf "pair %2d  %s first  ", n, $1
    line[$1] = sprintf("%s wall_s %s setup_s %s", $1, $3, $4)
    if (NR % 2 == 0)
        printf "%s   %s   digest %s\n", line["parent"], line["change"], $8
}
END {
    if (n == 0 || NR != 2 * n) {
        print "ab.sh: a run printed no metrics" > "/dev/stderr"
        exit 1
    }
    split("wall_s setup_s", metrics, " ")
    split("parent change", sides, " ")
    for (k = 1; k <= 2; k++) {
        m = metrics[k]
        print ""
        for (s = 1; s <= 2; s++) {
            sorted_of(sides[s], m, n)
            q1[s] = quantile(sorted, n, 0.25)
            q2[s] = quantile(sorted, n, 0.5)
            q3[s] = quantile(sorted, n, 0.75)
            printf "%-7s %-8s median %.6g  quartiles [%.6g, %.6g]\n", sides[s], m, q2[s], q1[s], q3[s]
        }
        won = lost = 0
        for (i = 1; i <= n; i++) {
            won += val["change", m, i] < val["parent", m, i]
            lost += val["change", m, i] > val["parent", m, i]
        }
        delta = q2[2] - q2[1]
        size = delta < 0 ? -delta : delta
        iqr = q3[1] - q1[1]
        beyond = size > iqr
        gain = delta < 0 && beyond && won * 10 >= n * 9
        printf "%-7s %-8s change faster in %d / %d pairs (slower in %d), median delta %+.2f %% of parent\n",
            "", m, won, n, lost, 100 * delta / q2[1]
        printf "%-7s %-8s |median delta| %.6g %s parent inter-quartile distance %.6g; gain by the rule: %s\n",
            "", m, size, beyond ? "above" : "within", iqr, gain ? "yes" : "no"
        row = row sprintf("  %-7s %11.6g %11.6g %+7.2f %%  %2d / %-2d  %9.4g  %-4s", m, q2[1], q2[2],
            100 * delta / q2[1], won, n, iqr, gain ? "yes" : "no")
    }
    printf "%-14s%s  %s\n", name, row, moved ? "NOT EQUAL" : "equal" >>summary
    print ""
    printf "ttff_p50_s, startup_ok_share, displayed_share, counters_digest: %s in all %d runs (%s)\n",
        moved ? "NOT EQUAL" : "equal", NR, first
    exit moved
}
' "$runs"
}

: >"$dir/summary.txt"
status=0
if [ "$workload" = all ]; then
    for each in steady_fleet paper_figs chaos_oracle surge_failover; do
        compare "$each" || status=1
        echo
    done
    echo "ab.sh all: per metric the parent's median, the change's, the delta, pairs the change won, the"
    echo "parent's inter-quartile distance and the gain by the rule; last, the simulated metrics and digest"
    printf '%-14s  %-7s %11s %11s %9s  %7s  %9s  %-4s  %-7s %11s %11s %9s  %7s  %9s  %-4s\n' workload \
        metric parent change delta won iqr gain metric parent change delta won iqr gain
    cat "$dir/summary.txt"
else
    compare "$workload" || status=1
fi
exit $status
