#!/bin/sh
# The ten-pair rule as a script: is a change better, worse or inside the
# bounds of BENCHMARK.json against a parent commit, by alternating runs of
# the unmodified benchmark of record (crates/bench/examples/e2e)?
#
# It builds PARENT's rcube_e2e from `git archive PARENT` extracted under
# $TMPDIR, then the working tree's from a copy at the same path, into two
# target directories (kept, so a second run only rebuilds what changed),
# both with --offline. For each
# workload it runs N pairs of `rcube_e2e --workload W --seed 42 --seconds S
# --trace 0`, the parent first in even pairs and the change first in odd
# ones, and reads each run's closing JSON line. Per end-to-end metric it
# prints the parent's median and quartile distance (IQR), the change's
# median, the pairs the change won (strictly better than the parent of its
# pair) and a verdict against the metric's bound in BENCHMARK.json:
#
#   unresolved  the parent's IQR exceeds bound × its median — too noisy to
#               say — unless every run of the change is better than every
#               run of the parent (then better); or fewer than 5 pairs ran
#               and the medians differ
#   worse       the change's median is worse by more than the bound
#   better      the change won ≥ 90 % of the pairs (ties win nothing) and
#               its median is better by more than the parent's IQR
#   inside      otherwise (a self-pair, PARENT = HEAD, reads this everywhere)
#
# and appends one JSON row (commit, parent, seed, pairs, seconds, per
# workload and metric the figures above and every run's value) to
# BENCH_pairs.jsonl at the root.
# --smoke is one pair of 1 s windows: it prints the row instead of
# appending it. Exits non-zero if a build fails or a run reports a failed
# operation or no result.
#
# usage: scripts/pairs.sh PARENT [--pairs N] [--seconds S] [--smoke] [WORKLOAD...]
#        (defaults: 10 pairs, 15 s, every workload BENCHMARK.json declares;
#        PAIRS_DIR, default $TMPDIR/rcube_pairs, holds the builds and runs)
set -eu

usage() {
    echo "usage: scripts/pairs.sh PARENT [--pairs N] [--seconds S] [--smoke] [WORKLOAD...]" >&2
    exit 2
}
[ $# -ge 1 ] || usage
parent_rev="$1"
shift
pairs=10
seconds=15
smoke=0
workloads=""
while [ $# -gt 0 ]; do
    case "$1" in
    --pairs) pairs="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --smoke) smoke=1; pairs=1; seconds=1; shift ;;
    -*) usage ;;
    *) workloads="$workloads $1"; shift ;;
    esac
done

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
parent=$(git rev-parse --verify "$parent_rev^{commit}")
commit=$(git describe --always --dirty --abbrev=12)
[ -n "$workloads" ] || workloads=$(python3 -c \
    'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

dir="${PAIRS_DIR:-${TMPDIR:-/tmp}/rcube_pairs}"
mkdir -p "$dir"
runs=$(mktemp -d "$dir/runs.XXXXXX")
trap 'rm -rf "$runs" "$dir/src"' EXIT

# Both sides build from one source path, so the paths a build embeds
# match and two builds of one commit are the same binary: a self-pair
# compares the box with itself. First the parent, as committed: git
# archive stamps every file with the commit time, so the same parent is
# not rebuilt; another parent's files are touched, or cargo would take
# them for older than its build. Then the working tree (tracked and
# untracked files, not ignored), whose times tar keeps.
src="$dir/src"
manifest=crates/bench/examples/e2e/Cargo.toml
build() { # SIDE
    echo "pairs: building the $1's rcube_e2e" >&2
    (cd "$src" && CARGO_TARGET_DIR="$dir/target-$1" \
        cargo build --release --quiet --offline --manifest-path "$manifest")
}
rm -rf "$src"
mkdir -p "$src"
git archive "$parent" | tar -x -C "$src"
if [ "$(cat "$dir/parent.rev" 2>/dev/null || true)" != "$parent" ]; then
    find "$src" -type f -exec touch {} +
fi
build parent
echo "$parent" >"$dir/parent.rev"
rm -rf "$src"
mkdir -p "$src"
git ls-files -coz --exclude-standard |
    tar --null --ignore-failed-read -T - -cf - 2>/dev/null | tar -x -C "$src"
build change

run() { # SIDE WORKLOAD PAIR
    out="$runs/$1.$2.$3"
    "$dir/target-$1/release/rcube_e2e" --workload "$2" --seed 42 --seconds "$seconds" \
        --trace 0 >"$out.log" 2>&1 || true
    tail -n 1 "$out.log" >"$out.json"
}
for w in $workloads; do
    i=0
    while [ "$i" -lt "$pairs" ]; do
        echo "pairs: $w, pair $((i + 1)) of $pairs" >&2
        if [ $((i % 2)) -eq 0 ]; then
            run parent "$w" "$i"
            run change "$w" "$i"
        else
            run change "$w" "$i"
            run parent "$w" "$i"
        fi
        i=$((i + 1))
    done
done

python3 - "$runs" "$pairs" "$seconds" "$smoke" "$commit" "$parent" $workloads <<'EOF'
import json, math, sys

runs, pairs, seconds, smoke, commit, parent = sys.argv[1:7]
pairs, smoke = int(pairs), smoke == "1"
workloads = sys.argv[7:]
metrics = json.load(open("BENCHMARK.json"))["end_to_end"]

def quartile(xs, p):
    xs = sorted(xs)
    at = (len(xs) - 1) * p
    lo = math.floor(at)
    return xs[lo] + (xs[min(lo + 1, len(xs) - 1)] - xs[lo]) * (at - lo)

def result(side, w, i):
    try:
        doc = json.loads(open(f"{runs}/{side}.{w}.{i}.json").read())
    except (OSError, ValueError):
        sys.exit(f"pairs: {side} {w} pair {i + 1} left no result (see its log)")
    if not doc["correct"] or doc["failed"]:
        sys.exit(f"pairs: {side} {w} pair {i + 1}: {doc['failed']} of {doc['attempted']} failed")
    return {name: m["value"] for name, m in doc["metrics"].items()}

row = {"commit": commit, "parent": parent, "seed": 42, "pairs": pairs,
       "seconds": float(seconds), "workloads": {}}
print(f"{'workload':<14} {'metric':<17} {'parent':>12} {'iqr':>10} {'change':>12} "
      f"{'wins':>6}  verdict")
for w in workloads:
    sides = [(result("parent", w, i), result("change", w, i)) for i in range(pairs)]
    row["workloads"][w] = {}
    for m in metrics:
        name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        p = [s[0][name] for s in sides]
        c = [s[1][name] for s in sides]
        pmed, cmed = quartile(p, 0.5), quartile(c, 0.5)
        iqr = quartile(p, 0.75) - quartile(p, 0.25)
        gain = (pmed - cmed) if lower else (cmed - pmed)
        wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
        scale = abs(pmed)
        if pairs < 5:
            verdict = "inside" if cmed == pmed else "unresolved"
        elif iqr > bound * scale:
            apart = max(c) < min(p) if lower else min(c) > max(p)
            verdict = "better" if apart else "unresolved"
        elif -gain > bound * scale:
            verdict = "worse"
        elif wins >= math.ceil(0.9 * pairs) and gain > iqr:
            verdict = "better"
        else:
            verdict = "inside"
        row["workloads"][w][name] = {"parent_median": pmed, "parent_iqr": iqr,
                                     "change_median": cmed, "wins": wins, "verdict": verdict,
                                     "parent": p, "change": c}
        print(f"{w:<14} {name:<17} {pmed:>12.4g} {iqr:>10.3g} {cmed:>12.4g} "
              f"{wins:>3}/{pairs:<2}  {verdict}")
line = json.dumps(row, separators=(",", ":"))
if smoke:
    print(line)
else:
    with open("BENCH_pairs.jsonl", "a") as f:
        f.write(line + "\n")
    print("pairs: appended a row to BENCH_pairs.jsonl")
EOF
