#!/usr/bin/env bash
# Guards "one Fiat–Shamir pass per proof".
#
# A proof's statement and first moves are absorbed into one running
# SHA-256, the stream is sealed once, and every challenge is a
# single-block hash of the sealed digest. The design this replaced built
# a fresh hasher per absorbed message and two more per challenge, which
# was most of a proof's cost; it comes back one convenient
# `Sha256::new()` at a time. This script fails if, in non-test code
# (above a file's `#[cfg(test)]` line):
#
#   * anything under `crates/zkp/src` names `Sha256` or calls `sha256(`
#     — all of a proof's hashing goes through `crypto::transcript`;
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

# Each hasher construction in transcript.rs, tagged with the `fn` it sits in.
while IFS= read -r hit; do
  fn_name=${hit%%:*}
  [[ " $hasher_sites " == *" $fn_name "* ]] && continue
  report "transcript.rs builds a hasher in \`$fn_name\`:" "$transcript:${hit#*:}" \
    "only ${hasher_sites// /, } may; a per-message hasher is the chained design"
done < <(
  non_test_lines "$transcript" | awk -F: '
    { text = $0; sub(/^[^:]*:[0-9]+:/, "", text) }
    match(text, /fn [a-z_0-9]+/) { current = substr(text, RSTART + 3, RLENGTH - 3) }
    text ~ /^[[:space:]]*\/\// { next }
    text ~ /Sha256::(new|default)\(|from_midstate\(/ { print current ":" $2 ":" text }
  '
)

while IFS= read -r hit; do
  report "the squeeze-and-ratchet challenge is back:" "$hit" \
    "challenges are Sealed::challenge(index, label) on the sealed digest"
done < <(grep -rn --include='*.rs' 'challenge_scalar' crates || true)

if [[ $fail -ne 0 ]]; then
  exit 1
fi
echo "ok: one transcript pass (no hashing in crates/zkp/src, hashers in $transcript only in: $hasher_sites)"
