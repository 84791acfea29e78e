#!/bin/sh
# What a second client costs the first, measured through the unmodified
# benchmark of record (crates/bench/examples/e2e). For each workload it runs
# `rcube_e2e --workload W --seconds S` three ways:
#
#   two clients   one process, the harness's own two client threads
#   one client    the same binary under `taskset -c 0` (the harness never
#                 starts more clients than it has CPUs)
#   pinned pair   two one-client processes at once, on CPUs 0 and 1, with
#                 different seeds: two clients that share hardware but no
#                 memory
#
# and prints `query_p50_us` / `qps` of each plus the tax: two-client p50
# minus the pinned pair's mean p50. What the pinned pair loses against one
# client is the machine (shared cache, memory bandwidth); what two clients
# lose against the pinned pair is the program — cache lines both threads
# write. Informational: always exits 0.
#
# usage: scripts/client_tax.sh [--seconds S] [--checkout DIR] [WORKLOAD...]
#        (defaults: 3 seconds, this checkout, grid_hot shard_scatter;
#        CARGO_TARGET_DIR is honoured, so two checkouts can be compared
#        from two build directories)
set -u

seconds=3
checkout="$(dirname "$0")/.."
workloads=""
while [ $# -gt 0 ]; do
    case "$1" in
    --seconds) seconds="$2"; shift 2 ;;
    --checkout) checkout="$2"; shift 2 ;;
    *) workloads="$workloads $1"; shift ;;
    esac
done
[ -n "$workloads" ] || workloads="grid_hot shard_scatter"

cpus=$(nproc 2>/dev/null || echo 1)
if [ "$cpus" -lt 2 ] || ! command -v taskset >/dev/null 2>&1; then
    echo "client_tax: needs ≥ 2 cores (and taskset); this box has $cpus"
    exit 0
fi

cd "$checkout" || exit 0
manifest=crates/bench/examples/e2e/Cargo.toml
if ! cargo build --release --quiet --offline --manifest-path "$manifest"; then
    echo "client_tax: rcube_e2e did not build"
    exit 0
fi
bin="${CARGO_TARGET_DIR:-crates/bench/examples/e2e/target}/release/rcube_e2e"

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# run NAME CPUS SEED WORKLOAD — one harness process, its stdout in $out/NAME.
run() {
    taskset -c "$2" "$bin" --workload "$4" --seed "$3" --seconds "$seconds" --trace 0 \
        >"$out/$1" 2>&1
}
metric() { awk -v m="$2" '$2 == m { print $3 }' "$out/$1"; }

printf '%-14s %-12s %14s %12s\n' workload mode query_p50_us qps
for w in $workloads; do
    run two 0,1 42 "$w"
    run one 0 42 "$w"
    run pair0 0 42 "$w" &
    run pair1 1 43 "$w"
    wait
    for mode in two one pair0 pair1; do
        printf '%-14s %-12s %14s %12s\n' "$w" "$mode" \
            "$(metric $mode query_p50_us)" "$(metric $mode qps)"
    done
    awk -v w="$w" -v two="$(metric two query_p50_us)" -v a="$(metric pair0 query_p50_us)" \
        -v b="$(metric pair1 query_p50_us)" -v qa="$(metric pair0 qps)" -v qb="$(metric pair1 qps)" \
        'BEGIN { printf "%-14s %-12s %14.2f %12.0f   (two-client p50 - pinned-pair p50; pair qps summed)\n",
                 w, "tax", two - (a + b) / 2, qa + qb }'
done
exit 0
