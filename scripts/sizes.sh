#!/bin/sh
# The sizes ROADMAP.md tracks, counted one way. Run from anywhere:
#
#   scripts/sizes.sh
#
# Lines are `wc -l` lines of `.rs` files outside `vendor/` and every
# `target/`; "non-test" stops each file at its first `#[cfg(test)]` /
# `#[cfg(all(test, ...))]`. The golden counts are the Prometheus
# families (`# TYPE` lines) and the scalar values on the JSON page.
set -eu
cd "$(dirname "$0")/.."

rs_lines() {
    find "$@" -name '*.rs' -not -path './vendor/*' -not -path '*/target/*' -exec cat {} + | wc -l
}

non_test_lines() {
    find "$@" -name '*.rs' -not -path '*/target/*' -exec awk '
        FNR == 1 { in_tests = 0 }
        /^#\[cfg\((all\()?test/ { in_tests = 1 }
        !in_tests { n++ }
        END { print n + 0 }' {} + | awk '{ n += $1 } END { print n + 0 }'
}

core=crates/algas-core/src
printf 'workspace .rs lines      %6d\n' "$(rs_lines .)"
printf 'algas-core               %6d\n' "$(rs_lines crates/algas-core)"
printf 'algas-core non-test      %6d\n' "$(non_test_lines crates/algas-core)"
printf 'algas-core obs/          %6d\n' "$(rs_lines $core/obs)"
printf 'algas-core net/          %6d\n' "$(rs_lines $core/net)"
printf 'src/cli.rs               %6d\n' "$(rs_lines src/cli.rs)"
printf 'prometheus families      %6d\n' "$(awk '/^# TYPE /{ n++ } END { print n + 0 }' tests/golden/stats.prom)"
printf 'json leaf values         %6d\n' "$(awk '{ n += gsub(/":[^[{]/, "&") } END { print n + 0 }' tests/golden/stats.json)"
