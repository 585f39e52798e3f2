#!/usr/bin/env sh
# Sampled CPU profile of one repo-benchmark workload (perf and valgrind are
# not on the box): a SIGPROF shim (scripts/sigprof_shim.c, LD_PRELOADed)
# writes the interrupted stack every millisecond of CPU time (or every
# kernel timer tick, where that is longer); addr2line
# resolves it, inlined frames included. Prints self time by first in-repo
# frame, by crate directory and by file:line, self time by source directory
# of the innermost frame (where std's `collections/btree` or `binary_heap`
# show), samples whose innermost frame is outside the executable (libc's
# `memcpy`, `malloc`, `realloc`) by the first caller that does resolve, and
# inclusive time by symbol. With --focus, a last table gives the inclusive
# time of every symbol matching the extended regular expression REGEX, its
# generic arguments stripped: every instance of `GcsNode<P>::on_timer`
# counts as one `gcs::node::GcsNode::on_timer`. An inlined frame carries
# its bare name (`tick_prune<P, M>` becomes `tick_prune`), so a REGEX like
# 'on_timer|tick_' finds both kinds. With --callers, a last table counts,
# for each sample whose stack holds a symbol matching REGEX, the innermost
# such symbol and the two nearest in-repo functions above it, generic
# arguments stripped as for --focus: the 20 most common chains, each with
# its share of all samples, under a title giving the share of samples that
# hold a match. `--callers f64` is how the float conversions' callers were
# found.
#
# The timer counts CPU time in user and kernel mode alike, and a signal is
# delivered on the way back to user mode: the time the kernel spends
# serving a page fault (zero-filling a page of a fresh `mmap` or of a grown
# heap) is charged to the user line that touched the page, not to a frame
# of its own. A plain store that owns several per cent is that.
#
#   sh scripts/profile.sh <workload> [--seed N] [--seconds S] [--focus REGEX]
#                                      [--callers REGEX]
#
# Builds benchmark/ with frame pointers and line tables into
# target/profile/ (its own target dir; nothing under benchmark/ is edited)
# and leaves the raw samples in target/profile/samples.txt. Needs gcc,
# addr2line and setarch. Not part of tier-1.
set -eu

cd "$(dirname "$0")/.."

workload=${1:?usage: profile.sh <workload> [--seed N] [--seconds S] [--focus REGEX] [--callers REGEX]}
shift
seed=0
seconds=6
focus=
callers=
while [ $# -gt 0 ]; do
    case $1 in
    --seed) seed=${2:?--seed needs a value} ;;
    --seconds) seconds=${2:?--seconds needs a value} ;;
    --focus) focus=${2:?--focus needs a value} ;;
    --callers) callers=${2:?--callers needs a value} ;;
    *)
        echo "profile.sh: unknown argument $1" >&2
        exit 2
        ;;
    esac
    shift 2
done

dir=$PWD/target/profile
mkdir -p "$dir"
gcc -O2 -shared -fPIC -o "$dir/sigprof_shim.so" scripts/sigprof_shim.c
RUSTFLAGS="-C force-frame-pointers=yes" CARGO_PROFILE_RELEASE_DEBUG=line-tables-only \
    CARGO_TARGET_DIR=$dir cargo build --release --quiet --offline \
    --manifest-path benchmark/Cargo.toml
bin=$dir/release/ftvod-benchmark

# -R: no address-space randomisation, so two profiles of one build compare
# address by address. `env` keeps the shim out of setarch itself.
setarch "$(uname -m)" -R env PROFILE_OUT="$dir/samples.txt" \
    LD_PRELOAD="$dir/sigprof_shim.so" \
    "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" >"$dir/run.txt"
sed -n 's/^counters_digest /counters_digest /p; s/^wall_s  */wall_s /p' "$dir/run.txt"

# Every distinct frame once through addr2line: `-a` heads each answer with
# the address, `-i` follows it with one (function, file:line) pair per
# inlined level, innermost first.
tr ' ' '\n' <"$dir/samples.txt" | grep -v '^0*$' | sort -u |
    addr2line -a -f -C -i -e "$bin" >"$dir/frames.txt"

awk -v root="$PWD/" -v focus="$focus" -v callers="$callers" '
function shorten(sym) {
    sub(/::h[0-9a-f]+$/, "", sym)
    return sym
}
# Innermost first: `Vec<T>` and `tick_prune<P, M>` lose their arguments,
# while `<Duration>::f` and `<VodServer as Process<M>>::f` keep the type.
function strip_generics(sym,    prev, inner, cut) {
    while (match(sym, /<[^<>]*>/)) {
        prev = RSTART > 1 ? substr(sym, RSTART - 1, 1) : ""
        inner = ""
        if (prev !~ /[A-Za-z0-9_}]/) {
            inner = substr(sym, RSTART + 1, RLENGTH - 2)
            cut = index(inner, " as ")
            if (cut)
                inner = substr(inner, 1, cut - 1)
        }
        sym = substr(sym, 1, RSTART - 1) inner substr(sym, RSTART + RLENGTH)
    }
    return sym
}
# First pass (frames.txt): frames[addr, level] = function / where.
FNR == NR {
    if ($0 ~ /^0x/) {
        addr = $0
        sub(/^0x0*/, "", addr)
        levels[addr] = 0
        want = "fn"
    } else if (want == "fn") {
        fn = shorten($0)
        want = "at"
    } else {
        at = $1
        in_repo = index(at, root) == 1
        if (in_repo)
            at = substr(at, length(root) + 1)
        n = ++levels[addr]
        func_of[addr, n] = fn
        where_of[addr, n] = at
        if (n == 1) {
            dir = at
            sub(/^\/rustc\/[0-9a-f]*\//, "", dir)
            sub(/\/[^\/]*$/, "", dir)
            leaf_dir[addr] = dir
        }
        if (in_repo) {
            split(at, part, "/")
            crate_of[addr, n] = part[1] == "crates" ? part[1] "/" part[2] : part[1]
            line_of[addr, n] = at
        }
        want = "fn"
    }
    next
}
# Second pass (samples.txt): one stack per line, leaf first.
{
    samples++
    by_leaf_dir[$1 in leaf_dir ? leaf_dir[$1] : "(outside the executable)"]++
    if (!($1 in leaf_dir)) {
        caller = "(no caller resolves)"
        for (i = 2; i <= NF; i++)
            if (levels[$i] > 0) {
                at = where_of[$i, 1]
                sub(/^\/rustc\/[0-9a-f]*\//, "", at)
                caller = func_of[$i, 1] "  " at
                break
            }
        by_outside_caller[caller]++
    }
    owner = ""
    chain = ""
    above = -1
    split("", seen)
    split("", seen_focus)
    for (i = 1; i <= NF; i++) {
        for (n = 1; n <= levels[$i]; n++) {
            fn = func_of[$i, n]
            if (!(fn in seen)) {
                seen[fn] = 1
                inclusive[fn]++
                if (focus != "") {
                    bare = strip_generics(fn)
                    if (bare ~ focus && !(bare in seen_focus)) {
                        seen_focus[bare] = 1
                        focused[bare]++
                    }
                }
            }
            if (callers != "" && above < 2) {
                bare = strip_generics(fn)
                if (above < 0 && bare ~ callers) {
                    chain = bare
                    above = 0
                } else if (above >= 0 && (($i, n) in crate_of)) {
                    chain = chain "  <  " bare
                    above++
                }
            }
            if (owner == "" && (($i, n) in crate_of)) {
                owner = fn
                by_frame[fn]++
                by_crate[crate_of[$i, n]]++
                by_line[line_of[$i, n]]++
            }
        }
    }
    if (owner == "")
        by_crate["(no in-repo frame)"]++
    if (chain != "") {
        by_chain[chain]++
        matched++
    }
}
function table(title, count, limit, keep_all,    key, cmd) {
    printf "\n%s\n", title
    fflush()
    cmd = "sort -rn | head -n " limit
    for (key in count)
        if (keep_all || count[key] < samples) # on every stack: says nothing
            printf "%6.2f %%  %6d  %s\n", 100 * count[key] / samples, count[key], key | cmd
    close(cmd)
}
END {
    if (samples == 0) {
        print "profile.sh: no samples" > "/dev/stderr"
        exit 1
    }
    printf "%d samples (one per timer tick of CPU time; 1 ms requested)\n", samples
    table("self time by crate directory of the first in-repo frame", by_crate, 20)
    table("self time by first in-repo frame", by_frame, 40)
    table("self time by file:line of the first in-repo frame", by_line, 40)
    table("self time by source directory of the innermost frame", by_leaf_dir, 20)
    table("innermost frame outside the executable, by first resolved caller", by_outside_caller, 20)
    table("inclusive time by symbol", inclusive, 60)
    if (focus != "")
        table("inclusive time of symbols matching " focus ", generic arguments stripped", focused, 1000, 1)
    if (callers != "")
        table(sprintf("first symbol matching %s  <  its two nearest in-repo callers (on %.2f %% of samples)",
            callers, 100 * matched / samples), by_chain, 20, 1)
}
' "$dir/frames.txt" "$dir/samples.txt"
