#!/usr/bin/env bash
# Guards "one pass per upload" in the ingestion epoch.
#
# §5.3 has a device upload an encrypted input with a proof, and the
# aggregator check the proof. `StreamExecutor::ingest_next` does exactly
# that per upload: one pooled map whose closure proves, verifies, takes
# the sampling draw and encrypts (`UploadPass::ingest`), so no proof
# outlives its check. The design this replaced proved a whole window,
# kept every proof alive for a second map that verified them, then
# encrypted serially — about 7 MB of proofs and claimed rows live at
# once on a 30 MB run. This script fails if, in
# `crates/runtime/src/stream.rs` (non-test code, above `#[cfg(test)]`):
#
#   * `verify_one_hot_detailed`, `verify_range_detailed` or
#     `bgv_encrypt` is called outside the `impl UploadPass` block — the
#     per-upload pass;
#   * `ingest_next` calls `par_map_arc` other than exactly once.
#
# Usage: scripts/check_one_upload_pass.sh   (run from anywhere)

set -euo pipefail
cd "$(dirname "$0")/.."

file=crates/runtime/src/stream.rs

fail=0
report() {
  echo "error: $1" >&2
  printf '  %s\n' "${@:3}" >&2
  echo "  ($2)" >&2
  fail=1
}

# `line:text` for every code line above the test module, with the name
# of the top-level item or method it sits in: `UploadPass` inside that
# impl block, the method name inside `StreamExecutor`'s.
tagged_lines() {
  awk '
    /^#\[cfg\(test\)\]/ { exit }
    /^impl UploadPass \{/ { block = "UploadPass" }
    /^    (pub )?fn [a-z_]+/ && block != "UploadPass" {
      name = $0; sub(/^ *(pub )?fn /, "", name); sub(/[(<].*/, "", name); block = name
    }
    /^}/ { print NR ":" block ":" $0; block = ""; next }
    { print NR ":" block ":" $0 }
  ' "$file" | grep -Ev '^[0-9]+:[^:]*:[[:space:]]*//' || true
}

mapfile -t outside < <(
  tagged_lines |
    grep -E '(verify_one_hot_detailed|verify_range_detailed|bgv_encrypt)\(' |
    grep -Ev '^[0-9]+:UploadPass:' || true
)
if [[ ${#outside[@]} -ne 0 ]]; then
  report "a proof is verified or an upload encrypted outside the per-upload pass:" \
    "prove, verify and encrypt inside UploadPass, one upload at a time" "${outside[@]}"
fi

mapfile -t maps < <(
  tagged_lines | grep -E '^[0-9]+:ingest_next:.*par_map_arc\(' || true
)
if [[ ${#maps[@]} -ne 1 ]]; then
  report "ingest_next makes ${#maps[@]} par_map_arc calls, not one:" \
    "one pooled map over the window's arrivals; bookkeeping is a serial pass after it" \
    "${maps[@]:-(no pooled map at all)}"
fi

mapfile -t inside < <(
  tagged_lines |
    grep -E '^[0-9]+:UploadPass:.*(verify_one_hot_detailed|verify_range_detailed|bgv_encrypt)\(' || true
)
if [[ ${#inside[@]} -eq 0 ]]; then
  report "the per-upload pass verifies and encrypts nothing:" \
    "the guard no longer finds the pass it protects; update it with the code" "(impl UploadPass)"
fi

if [[ $fail -ne 0 ]]; then
  exit 1
fi
echo "ok: ${#inside[@]} verify/encrypt calls, all inside impl UploadPass; one pooled map in ingest_next (${file}:${maps[0]%%:*})"
