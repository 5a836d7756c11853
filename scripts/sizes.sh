#!/bin/sh
# The sizes ROADMAP.md tracks, counted one way. Run from anywhere:
#
#   scripts/sizes.sh
#
# Lines are `wc -l` lines of `.rs` files outside `vendor/` and every
# `target/`; "non-test" stops each file at its first `#[cfg(test)]` /
# `#[cfg(all(test, ...))]`. The golden counts are the Prometheus
# families (`# TYPE` lines) and the scalar values on the JSON page.
# The option counts are the `pub` fields of every `pub struct *Config`
# in `algas-core`, and the flags `algas serve` accepts (the words of
# `src/cli.rs`'s `ENGINE` and `SESSION` lists plus `serve`'s own).
# The simulator edge is the number of `algas-core` files whose non-test
# code names `algas_gpu_sim` outside a comment.
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

config_fields() {
    find "$1" -name '*.rs' -exec awk '
        /^pub struct [A-Za-z0-9_]*Config / { in_config = 1; next }
        in_config && /^}/ { in_config = 0 }
        in_config && /^    pub [a-z0-9_]+:/ { n++ }
        END { print n + 0 }' {} + | awk '{ n += $1 } END { print n + 0 }'
}

serve_flags() {
    awk '
        /^const (ENGINE|SESSION): &str =/ { grab = 1 }
        /"serve" => / { in_serve = 1 }
        in_serve && /let own = / { grab = 1; in_serve = 0 }
        grab {
            if (match($0, /"[^"]*"/)) n += split(substr($0, RSTART + 1, RLENGTH - 2), w, " ")
            if ($0 ~ /;/) grab = 0
        }
        END { print n + 0 }' src/cli.rs
}

gpu_sim_files() {
    find "$1" -name '*.rs' -exec awk '
        FNR == 1 { in_tests = 0 }
        /^#\[cfg\((all\()?test/ { in_tests = 1 }
        !in_tests && !/^[[:space:]]*\/\// && /algas_gpu_sim/ { print FILENAME }' {} + |
        sort -u | wc -l
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
printf 'algas-core *Config fields %5d\n' "$(config_fields $core)"
printf 'serve flags              %6d\n' "$(serve_flags)"
printf 'algas-core files naming algas_gpu_sim %d\n' "$(gpu_sim_files $core)"
