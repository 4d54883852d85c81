#!/usr/bin/env bash
# Guards "one fabric".
#
# Every MPC engine runs on the virtual-time `EventedFabric`. The design
# this replaced also kept an instant in-process sim fabric, an
# engine-side enum that forwarded every call to one of the two, a
# separate event core the evented fabric only delegated to, and a
# `FabricKind` selector threaded through configs, the CLI and every
# determinism suite, which asserted both fabrics bitwise equal. This
# script fails if any of the three deleted types is named under
# `crates/`, `tests/` or `examples/` (the pattern groups a prefix of
# each name, so a search for the names finds nothing here either), or
# if `FabricKind` is named outside the allow-list below: the inert
# definitions the end-to-end benchmark still calls by name
# (`FabricKind` itself, `ExecutionConfig.fabric`, `MpcEngine::new_on`,
# `build_session_setup_on`). ROADMAP item 1b empties the allow-list.
#
# Usage: scripts/check_one_fabric.sh   (run from anywhere)

set -euo pipefail
cd "$(dirname "$0")/.."

allowed=(
  crates/net/src/config.rs
  crates/net/src/lib.rs
  crates/runtime/src/executor.rs
  crates/runtime/src/setup.rs
  crates/mpc/src/engine.rs
)

mapfile -t files < <(find crates tests examples -name '*.rs' | sort)

mapfile -t deleted < <(grep -nwE '(Sim)Transport|(Engine)Fabric|(Evented)Core' "${files[@]}" || true)
if [[ ${#deleted[@]} -ne 0 ]]; then
  echo "error: a deleted fabric type is named again:" >&2
  printf '  %s\n' "${deleted[@]}" >&2
  echo "  (every engine runs on EventedFabric; there is no second fabric)" >&2
  exit 1
fi

mapfile -t named < <(grep -nw 'FabricKind' "${files[@]}" || true)
stray=()
for hit in "${named[@]}"; do
  file=${hit%%:*}
  ok=0
  for a in "${allowed[@]}"; do
    [[ $file == "$a" ]] && ok=1
  done
  [[ $ok -eq 1 ]] || stray+=("$hit")
done
if [[ ${#stray[@]} -ne 0 ]]; then
  echo "error: FabricKind is named outside its inert definitions:" >&2
  printf '  %s\n' "${stray[@]}" >&2
  echo "  (it selects nothing; only the benchmark's by-name calls keep it)" >&2
  exit 1
fi
echo "ok: one fabric across ${#files[@]} files; FabricKind only in ${#allowed[@]} allow-listed files"
