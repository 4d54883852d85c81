#!/usr/bin/env bash
# Guards "no clock in the program's data".
#
# Everything the aggregator logs or hands forward (reports, checkpoints,
# plan statistics) is a pure function of its inputs, so two runs compare
# with `==` and checkpoint bytes can be hashed. A wall-clock read in
# library code is how a nanosecond count ends up inside such a value.
# This script fails if `Instant::now`, `SystemTime::now` or `.elapsed()`
# appears in non-test code (above a file's `#[cfg(test)]` line) under
# `crates/*/src`, outside the allow-list below. `benchmark/` is its own
# workspace and the repo's only timing harness; it is not scanned.
#
# Usage: scripts/check_no_program_clock.sh   (run from anywhere)

set -euo pipefail
cd "$(dirname "$0")/.."

# Paths (a directory or one file) that may read a clock, each for a reason:
#   crates/bench/src                   the paper-figure harness (Fig. 9 planner times)
#   crates/core/src/bin/arboretum.rs   the CLI prints how long planning took
allowed=(crates/bench/src crates/core/src/bin/arboretum.rs)

clock='Instant::now|SystemTime::now|\.elapsed\(\)'

fail=0
while IFS= read -r -d '' f; do
  for prefix in "${allowed[@]}"; do
    [[ $f == "$prefix"/* || $f == "$prefix" ]] && continue 2
  done
  while IFS= read -r hit; do
    line=${hit#*:*:}
    # Pure comment/doc lines may discuss clocks freely.
    trimmed=${line#"${line%%[![:space:]]*}"}
    [[ $trimmed == //* ]] && continue
    echo "error: wall-clock read in program code:" >&2
    echo "  $hit" >&2
    echo "  (time it from benchmark/ or the CLI; program values carry no clock)" >&2
    fail=1
  done < <(
    awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit } { print f ":" NR ":" $0 }' "$f" |
      grep -E "^[^:]*:[0-9]+:.*(${clock})" || true
  )
done < <(find crates/*/src -name '*.rs' -print0 | sort -z)

if [[ $fail -ne 0 ]]; then
  exit 1
fi
echo "ok: no clock reads in crates/*/src outside ${allowed[*]}"
