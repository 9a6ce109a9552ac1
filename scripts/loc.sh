#!/usr/bin/env bash
# Non-test line count per crate: for every .rs file under a crate's
# src/, the lines before the `mod` line of its first `#[cfg(test)] mod`
# (the whole file when it has none). ROADMAP aim 2 wants this number to
# fall; check.sh prints it so every CI log carries it.
#
#   scripts/loc.sh                  # every crate + the facade (crates/vendor/* stand-ins are not counted)
#   scripts/loc.sh FILE...          # just those files, one line each
set -euo pipefail

cd "$(dirname "$0")/.." || exit 1

count() {
    awk 'FNR == 1 { test_attr = 0 }
         test_attr && /^[[:space:]]*(pub(\([a-z]+\))? )?mod / { nextfile }
         { n++; test_attr = ($0 ~ /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/) }
         END { print n + 0 }' "$@"
}

if [[ $# -gt 0 ]]; then
    for file in "$@"; do
        printf '%7d  %s\n' "$(count "$file")" "$file"
    done
    exit 0
fi

total=0
for src in crates/*/src src; do
    mapfile -t files < <(find "$src" -name '*.rs' | sort)
    [[ ${#files[@]} -eq 0 ]] && continue
    lines="$(count "${files[@]}")"
    printf '%7d  %s\n' "$lines" "$src"
    total=$((total + lines))
done
printf '%7d  total non-test lines\n' "$total"
