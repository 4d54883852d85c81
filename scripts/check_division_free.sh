#!/usr/bin/env bash
# Guards the division-free NTT/BGV and group-exponentiation hot paths.
#
# The field and bgv crates' modular arithmetic went through a
# Shoup/Barrett rewrite — `zq::Barrett` and `mul_mod_shoup` for runtime
# moduli, `Fp::mul`'s one-word Barrett (three word multiplies, M < 2^62)
# and Goldilocks fold for compile-time ones — and the crypto crate's
# exponent kernels (fixed-base tables, Straus, Pippenger) are loops over
# that multiply; a stray `(a as u128 * b as u128) % q as u128`
# or `c % q` quietly reintroduces a hardware divide per coefficient.
# This script fails if one appears in those crates' sources, unless the
# line carries a `// div-ok` marker (reserved for sanctioned reference
# implementations, e.g. `zq::mul_mod`, and once-per-context set-up).
#
# Two patterns:
#   * a `u128` remainder, anywhere in the sources (tests mark theirs);
#   * a remainder by a runtime modulus — `% q`, `%= m`, `% self.modulus`,
#     `.rem_euclid(t)` and the like — in non-test code, i.e. above a
#     file's `#[cfg(test)]` line. A remainder by a literal or by a
#     const-generic `M` compiles to a multiply and is not matched.
#
# Usage: scripts/check_division_free.sh   (run from anywhere)

set -euo pipefail
cd "$(dirname "$0")/.."

hot_paths=(crates/field/src crates/bgv/src crates/crypto/src)

wide='%[[:space:]]*[A-Za-z_][A-Za-z0-9_]*[[:space:]]+as[[:space:]]+u128|as[[:space:]]+u128[^;]*%'
modulus='(self\.)?(q|m|p|t|kq|q[0-9]+|modulus)'
narrow="%=?[[:space:]]*${modulus}([^A-Za-z0-9_(]|\$)|\.(rem|div)_euclid\("

# `file:line:text` for every source line above the file's test module.
non_test_lines() {
  find "${hot_paths[@]}" -name '*.rs' -print0 | sort -z | while IFS= read -r -d '' f; do
    awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit } { print f ":" NR ":" $0 }' "$f"
  done
}

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
done < <(
  grep -rn --include='*.rs' -E "$wide" "${hot_paths[@]}" || true
  non_test_lines | grep -E "^[^:]*:[0-9]+:.*(${narrow})" || true
)

if [[ $fail -ne 0 ]]; then
  exit 1
fi
echo "ok: no unsanctioned division-based reductions in ${hot_paths[*]}"
