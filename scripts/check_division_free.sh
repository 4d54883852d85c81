#!/usr/bin/env bash
# Guards the division-free NTT/BGV hot path.
#
# The field and bgv crates' modular arithmetic went through a
# Shoup/Barrett rewrite; a stray `(a as u128 * b as u128) % q as u128`
# quietly reintroduces a hardware divide per coefficient. This script
# fails if a division-based modular reduction appears in those crates'
# sources, unless the line carries a `// div-ok` marker (reserved for
# sanctioned reference implementations, e.g. `zq::mul_mod`).
#
# Usage: scripts/check_division_free.sh   (run from anywhere)

set -euo pipefail
cd "$(dirname "$0")/.."

hot_paths=(crates/field/src crates/bgv/src)

fail=0
while IFS= read -r hit; do
  line=${hit#*:*:}
  # Sanctioned reference reductions opt out explicitly.
  [[ $line == *"div-ok"* ]] && continue
  # Pure comment/doc lines may discuss `%` freely.
  trimmed=${line#"${line%%[![:space:]]*}"}
  [[ $trimmed == //* ]] && continue
  echo "error: division-based modular reduction in the hot path:" >&2
  echo "  $hit" >&2
  echo "  (use zq::Barrett / mul_mod_shoup, or mark a reference with // div-ok)" >&2
  fail=1
done < <(grep -rn --include='*.rs' -E '%[[:space:]]*[A-Za-z_][A-Za-z0-9_]*[[:space:]]+as[[:space:]]+u128|as[[:space:]]+u128[^;]*%' "${hot_paths[@]}" || true)

if [[ $fail -ne 0 ]]; then
  exit 1
fi
echo "ok: no unsanctioned division-based reductions in ${hot_paths[*]}"
