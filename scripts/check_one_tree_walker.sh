#!/usr/bin/env bash
# Guards "one tree walker".
#
# The reference interpreter (`crates/lang/src/interp.rs`) is the one
# definition of what a public value does: its `binop`, `unop`, `index`,
# `store`, `builtin` and `mech_params` compute every operation whose
# operands are all public. The committee's secure evaluator
# (`crates/runtime/src/mpc_eval.rs`) keeps only the secret half and
# calls them. The design this replaced carried a second copy of public
# arithmetic, slot reads and writes and builtins inside the evaluator,
# and the two copies drifted apart. This script fails if the non-test
# part of `mpc_eval.rs` (everything above its `#[cfg(test)]` module):
#
#   * defines a public-arithmetic helper (`fn pub_bin`, `fn as_pub_fix`);
#   * names a per-kind public value variant (`PubInt`, `PubFix`,
#     `PubBool`, `PubIntArr`, `PubFixArr`): a public value is one
#     `MVal::Pub(interp::Value)`.
#
# Usage: scripts/check_one_tree_walker.sh   (run from anywhere)

set -euo pipefail
cd "$(dirname "$0")/.."

file=crates/runtime/src/mpc_eval.rs
[[ -f $file ]] || { echo "error: $file not found" >&2; exit 1; }

mapfile -t hits < <(
  awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ":" $0 }' "$file" |
    grep -E 'fn (pub_bin|as_pub_fix)\b|\bPub(Int|Fix|Bool|IntArr|FixArr)\b' || true
)
if [[ ${#hits[@]} -ne 0 ]]; then
  echo "error: the secure evaluator computes on public values itself:" >&2
  printf '  %s\n' "${hits[@]}" >&2
  echo "  (call lang::interp's binop/unop/index/store/builtin/mech_params on MVal::Pub values)" >&2
  exit 1
fi
lines=$(awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")
echo "ok: one tree walker; the ${lines} non-test lines of $file compute nothing public"
