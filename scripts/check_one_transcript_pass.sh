#!/usr/bin/env bash
# Guards "one Fiat–Shamir pass and one challenge per proof".
#
# A proof's statement and first moves are absorbed into one running
# SHA-256, the stream is sealed once, and every sub-proof (each bit
# proof, a one-hot proof's sum proof) answers the one challenge
# `e = H(D ‖ 0 ‖ "e")` of the sealed digest. The design before the one
# pass built a fresh hasher per absorbed message and two more per
# challenge, which was most of a proof's cost; it comes back one
# convenient `Sha256::new()` at a time. The design before the one
# challenge drew one per sub-proof, `k + 1` compressions to prove and
# `k + 1` more to verify; it comes back one convenient
# `sealed.challenge(i, …)` at a time. This script fails if, in non-test
# code (above a file's `#[cfg(test)]` line):
#
#   * anything under `crates/zkp/src` names `Sha256` or calls `sha256(`
#     — all of a proof's hashing goes through `crypto::transcript`;
#   * anything under `crates/zkp/src` calls `Sealed::challenge`
#     (`.challenge(`) outside `proof_challenge`, the one per-proof
#     challenge, and `fold_rho`, the verifier's fold coefficient;
#   * `crates/crypto/src/transcript.rs` constructs a hasher anywhere but
#     `Transcript::new`, `Sealed::challenge` and `Sealed::bind`;
#
# or if `challenge_scalar` (the per-challenge squeeze-and-ratchet)
# appears anywhere under `crates/`, tests included.
#
# Usage: scripts/check_one_transcript_pass.sh   (run from anywhere)

set -euo pipefail
cd "$(dirname "$0")/.."

transcript=crates/crypto/src/transcript.rs
# The functions of `transcript.rs` that may construct a hasher.
hasher_sites='new challenge bind'
# The functions under `crates/zkp/src` that may draw a challenge.
challenge_sites='proof_challenge fold_rho'

# `file:line:text` for every source line above the file's test module.
non_test_lines() {
  awk -v f="$1" '/^#\[cfg\(test\)\]/ { exit } { print f ":" NR ":" $0 }' "$1"
}

fail=0
report() {
  echo "error: $1" >&2
  echo "  $2" >&2
  echo "  ($3)" >&2
  fail=1
}

while IFS= read -r -d '' f; do
  while IFS= read -r hit; do
    line=${hit#*:*:}
    # Pure comment/doc lines may discuss hashing freely.
    trimmed=${line#"${line%%[![:space:]]*}"}
    [[ $trimmed == //* ]] && continue
    report "hashing in zkp outside the transcript:" "$hit" \
      "absorb it into the proof's Transcript, or derive it from the Sealed digest"
  done < <(non_test_lines "$f" | grep -E '^[^:]*:[0-9]+:.*(Sha256|sha256\()' || true)
done < <(find crates/zkp/src -name '*.rs' -print0 | sort -z)

# `fn:file:line:text` for every non-comment line of non-test code in
# the files given that matches the regex `$1`, tagged with the `fn` it
# sits in.
hits_by_fn() {
  local pattern=$1
  shift
  for f in "$@"; do
    non_test_lines "$f" | awk -v pattern="$pattern" '
      { text = $0; sub(/^[^:]*:[0-9]+:/, "", text) }
      match(text, /fn [a-z_0-9]+/) { current = substr(text, RSTART + 3, RLENGTH - 3) }
      text ~ /^[[:space:]]*\/\// { next }
      text ~ pattern { print current ":" $0 }
    '
  done
}

# Each hasher construction in transcript.rs.
while IFS= read -r hit; do
  fn_name=${hit%%:*}
  [[ " $hasher_sites " == *" $fn_name "* ]] && continue
  report "transcript.rs builds a hasher in \`$fn_name\`:" "${hit#*:}" \
    "only ${hasher_sites// /, } may; a per-message hasher is the chained design"
done < <(hits_by_fn 'Sha256::(new|default)\(|from_midstate\(' "$transcript")

# Each challenge drawn under crates/zkp/src.
mapfile -d '' zkp_sources < <(find crates/zkp/src -name '*.rs' -print0 | sort -z)
while IFS= read -r hit; do
  fn_name=${hit%%:*}
  [[ " $challenge_sites " == *" $fn_name "* ]] && continue
  report "zkp draws a challenge in \`$fn_name\`:" "${hit#*:}" \
    "every sub-proof answers proof_challenge's one e; a challenge per sub-proof is the old design"
done < <(hits_by_fn '\.challenge\(' "${zkp_sources[@]}")

while IFS= read -r hit; do
  report "the squeeze-and-ratchet challenge is back:" "$hit" \
    "challenges are Sealed::challenge(index, label) on the sealed digest"
done < <(grep -rn --include='*.rs' 'challenge_scalar' crates || true)

if [[ $fail -ne 0 ]]; then
  exit 1
fi
echo "ok: one transcript pass and one challenge per proof (no hashing in crates/zkp/src, challenges there only in: $challenge_sites; hashers in $transcript only in: $hasher_sites)"
