#!/usr/bin/env bash
# Guards "one pass per upload" in the ingestion epoch.
#
# §5.3 has a device upload an encrypted input with a proof, and the
# aggregator check the proof and ⊞-sum what it accepts.
# `StreamExecutor::ingest_next` does exactly that per upload: one pooled
# map over blocks of arrivals whose closure proves, verifies, takes the
# sampling draw, encrypts and ⊞-adds each upload into its block's sum,
# then adds the finished block's sum into the window's one running sum
# (`UploadPass::ingest_block`), so no proof outlives its check and no
# ciphertext outlives its fold. Three designs came before it: one proved
# a whole window and kept every proof alive for a second map that
# verified them (about 7 MB of proofs live at once on a 30 MB run), one
# kept every accepted ciphertext of a window until a fold after the map
# (64 MB of ingest_narrow's 74 MB peak, 658 MB for a one-window epoch of
# 10^5 devices), and one kept every block's sum until a tree fold after
# the map (one ciphertext per 32 arrivals: about 19 MB of a one-window
# epoch of 10^5 devices). This script fails if, in
# `crates/runtime/src/stream.rs` (non-test code, above `#[cfg(test)]`):
#
#   * `verify_one_hot_detailed`, `verify_range_detailed`, `bgv_encrypt`
#     or `add_assign` is called outside the `impl UploadPass` block — the
#     per-upload pass;
#   * `ingest_next` calls `par_chunks` other than exactly once, or calls
#     `par_map_arc` or `par_sum_chunks` at all: a fan-in fold over the
#     window's block sums means the window held every one of them;
#   * `enum UploadOutcome` names `Ciphertext`: an outcome that carries
#     its ciphertext out of the pass is the collect-then-fold design;
#   * `type UploadJob` names `Vec`, or `ingest_next` calls `.clone()` or
#     `.to_vec()` on `db`: the pass reads each device's row in place from
#     the deployment's shared table (`executor::Rows`). A job that carried
#     a copy of its row made those copies a window's largest live set
#     once ciphertexts were folded per block (137 KB of rows against
#     67 KB of block sums in a 256-upload, k = 64 window).
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

single_upload='(verify_one_hot_detailed|verify_range_detailed|bgv_encrypt|add_assign)\('

mapfile -t outside < <(
  tagged_lines | grep -E "$single_upload" | grep -Ev '^[0-9]+:UploadPass:' || true
)
if [[ ${#outside[@]} -ne 0 ]]; then
  report "a proof is verified, an upload encrypted or a ciphertext folded outside the per-upload pass:" \
    "prove, verify, encrypt and fold inside UploadPass, one upload at a time" "${outside[@]}"
fi

mapfile -t maps < <(
  tagged_lines | grep -E '^[0-9]+:ingest_next:.*\bpar_chunks\(' || true
)
if [[ ${#maps[@]} -ne 1 ]]; then
  report "ingest_next makes ${#maps[@]} par_chunks calls, not one:" \
    "one pooled map over the window's blocks of arrivals; bookkeeping is a serial pass after it" \
    "${maps[@]:-(no pooled map at all)}"
fi

mapfile -t per_upload_maps < <(
  tagged_lines | grep -E '^[0-9]+:ingest_next:.*par_map_arc\(' || true
)
if [[ ${#per_upload_maps[@]} -ne 0 ]]; then
  report "ingest_next maps uploads one by one:" \
    "a per-upload map returns every ciphertext before any is folded; map blocks with par_chunks" \
    "${per_upload_maps[@]}"
fi

mapfile -t tree_folds < <(
  tagged_lines | grep -E '^[0-9]+:ingest_next:.*\bpar_sum_chunks\(' || true
)
if [[ ${#tree_folds[@]} -ne 0 ]]; then
  report "ingest_next folds the window's block sums in a tree after the pooled map:" \
    "each block adds its sum into the window's one running sum inside UploadPass" "${tree_folds[@]}"
fi

mapfile -t carried < <(
  awk '
    /^#\[cfg\(test\)\]/ { exit }
    /^enum UploadOutcome \{/ { inside = 1 }
    inside && !/^[[:space:]]*\/\// && /(^|[^A-Za-z0-9_])Ciphertext([^A-Za-z0-9_]|$)/ { print NR ":" $0 }
    inside && /^}/ { inside = 0 }
  ' "$file"
)
if [[ ${#carried[@]} -ne 0 ]]; then
  report "an upload outcome carries a ciphertext out of the per-upload pass:" \
    "fold each accepted ciphertext into its block's sum inside UploadPass" "${carried[@]}"
fi

mapfile -t job_vecs < <(
  awk '
    /^#\[cfg\(test\)\]/ { exit }
    /^type UploadJob[^A-Za-z0-9_]/ { inside = 1 }
    inside && /(^|[^A-Za-z0-9_])Vec([^A-Za-z0-9_]|$)/ { print NR ":" $0 }
    inside && /;/ { inside = 0 }
  ' "$file"
)
if [[ ${#job_vecs[@]} -ne 0 ]]; then
  report "an upload job carries a vector:" \
    "a job is a registry index and a behavior; the pass reads the row in place from the shared table" "${job_vecs[@]}"
fi

mapfile -t row_copies < <(
  tagged_lines | grep -E '^[0-9]+:ingest_next:.*\bdb\b[^;]*\.(clone|to_vec)\(' || true
)
if [[ ${#row_copies[@]} -ne 0 ]]; then
  report "ingest_next copies the deployment's rows:" \
    "hand the pass a Rows::clone of the table (O(1)) and read rows in place" "${row_copies[@]}"
fi

mapfile -t inside < <(
  tagged_lines | grep -E "^[0-9]+:UploadPass:.*$single_upload" || true
)
if [[ ${#inside[@]} -eq 0 ]]; then
  report "the per-upload pass verifies, encrypts and folds nothing:" \
    "the guard no longer finds the pass it protects; update it with the code" "(impl UploadPass)"
fi
if ! grep -q '^type UploadJob\b' "$file"; then
  report "no type UploadJob:" \
    "the guard no longer finds the job type it checks; update it with the code" "($file)"
fi
if ! grep -q '^enum UploadOutcome {' "$file"; then
  report "no enum UploadOutcome:" \
    "the guard no longer finds the outcome type it checks; update it with the code" "($file)"
fi

if [[ $fail -ne 0 ]]; then
  exit 1
fi
echo "ok: ${#inside[@]} verify/encrypt/fold calls, all inside impl UploadPass; one pooled block map and no tree fold in ingest_next (${file}:${maps[0]%%:*}); no ciphertext in UploadOutcome; no row copied into a job"
