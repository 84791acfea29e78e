#!/bin/sh
# Non-test lines of Rust, the count every PR records in CHANGES.md: for each
# file under crates/*/src and src/, the lines above the first top-level
# `#[cfg(test)]` that is followed by a `mod`, blank lines and `//` comment
# lines (doc comments included) not counted. Prints one total per crate, the
# `crates/core/src + src/` figure ROADMAP item 6 tracks, and the workspace
# total with and without `crates/bench`. A last row counts the bench targets
# (`crates/bench/benches`) by the same rule; no total above includes them.
# Run from anywhere inside the repository; pass a directory to count
# another checkout.
set -eu
cd "${1:-$(dirname "$0")/..}"

count() {
    find "$@" -name '*.rs' -print0 | xargs -0 awk '
        FNR == 1 { in_tests = 0; pending = 0 }
        in_tests { next }
        pending && /^mod / { in_tests = 1; pending = 0; held = 0; next }
        pending { total += held; pending = 0; held = 0 }
        /^#\[cfg\(test\)\]/ { pending = 1; held = 1; next }
        /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { total++ }
        END { print total + 0 }'
}

all=0
bench=0
for dir in crates/*/src src; do
    n=$(count "$dir")
    printf '%-22s %6d\n' "$dir" "$n"
    all=$((all + n))
    case "$dir" in crates/bench/src) bench=$n ;; esac
done
printf '%-22s %6d\n' 'crates/core/src + src' "$(count crates/core/src src)"
printf '%-22s %6d\n' 'all but crates/bench' "$((all - bench))"
printf '%-22s %6d\n' 'all' "$all"
printf '%-22s %6d\n' 'crates/bench/benches' "$(count crates/bench/benches)"
