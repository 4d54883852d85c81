#!/usr/bin/env bash
# Guards "one committee sizing per distinct total per search".
#
# §5.1's minimum committee size is the planner's most expensive step by
# three orders of magnitude (a scan over `m`, each step a log-sum-exp of
# binomial terms). A search asks for it through its one size memo, so it
# runs once per distinct committee total; the design this replaced looked
# the size up, discarded it (`let _ = m;`) and had `plan::assemble` size
# every candidate again from nothing — 4,877 sizings a corpus sweep for
# 645 distinct totals. This script fails if, under `crates/planner/src`:
#
#   * non-test code (above a file's `#[cfg(test)]` line) names
#     `min_committee_size` anywhere but once — the memo's fill in
#     `search::plan`;
#   * `plan.rs` names `arboretum_sortition` outside its test module —
#     scoring takes the committee size, it does not work one out;
#   * a `let _ =` binding appears anywhere, tests included — a computed
#     value thrown away is how the discarded lookup hid.
#
# Usage: scripts/check_one_sizing_site.sh   (run from anywhere)

set -euo pipefail
cd "$(dirname "$0")/.."

src=crates/planner/src

# `file:line:text` for every source line above the file's test module.
non_test_lines() {
  awk -v f="$1" '/^#\[cfg\(test\)\]/ { exit } { print f ":" NR ":" $0 }' "$1"
}

# Drops hits whose text is a pure comment/doc line.
code_only() {
  grep -Ev '^[^:]*:[0-9]+:[[:space:]]*//' || true
}

fail=0
report() {
  echo "error: $1" >&2
  printf '  %s\n' "${@:3}" >&2
  echo "  ($2)" >&2
  fail=1
}

mapfile -t files < <(find "$src" -name '*.rs' | sort)

mapfile -t sizings < <(
  for f in "${files[@]}"; do non_test_lines "$f"; done |
    grep -E '^[^:]*:[0-9]+:.*min_committee_size' | code_only
)
if [[ ${#sizings[@]} -ne 1 ]]; then
  report "planner code names min_committee_size ${#sizings[@]} times, not once:" \
    "size committees through the search's SizeMemo; its fill is the one call" \
    "${sizings[@]:-(no call at all: the memo has nothing to fill from)}"
fi

mapfile -t imports < <(
  non_test_lines "$src/plan.rs" | grep -E '^[^:]*:[0-9]+:.*arboretum_sortition' | code_only
)
if [[ ${#imports[@]} -ne 0 ]]; then
  report "plan.rs reaches for the sortition crate:" \
    "assemble and score take the committee size as an argument" "${imports[@]}"
fi

mapfile -t discards < <(
  grep -nE 'let _ =' "${files[@]}" | code_only
)
if [[ ${#discards[@]} -ne 0 ]]; then
  report "a computed value is discarded:" \
    "use it or do not compute it" "${discards[@]}"
fi

if [[ $fail -ne 0 ]]; then
  exit 1
fi
echo "ok: one sizing site under $src (${sizings[0]%%:*}:$(cut -d: -f2 <<<"${sizings[0]}")), none in plan.rs, no discarded values"
