#!/usr/bin/env bash
# Guards "one pool".
#
# One `ThreadPool` runs every parallel phase of the aggregator. The
# design this replaced also split the device set across K in-process
# pools (a shard plan, a set of per-shard pools, `_sharded` twins of
# the map, chunk and reduce kernels, a shard-count resolver) to
# simulate the paper's 1,000-core aggregator, and every determinism
# suite asserted that K > 1 changed no bit. This script fails if:
#
#   * any of the deleted names is named under `crates/`, `tests/` or
#     `examples/` (the pattern groups a prefix of each name, so a search
#     for the names finds nothing here either);
#   * one of the four inert forwarders the end-to-end benchmark still
#     calls by name is named outside its defining files:
#     `ParConfig::{with_shards, sharded_pool}` (crates/par/src/config.rs)
#     and `bgv::{par_sum_sharded, par_sum_chunks_sharded}`
#     (crates/bgv/src/{batch,lib}.rs). ROADMAP item 1b deletes them.
#
# Usage: scripts/check_one_pool.sh   (run from anywhere)

set -euo pipefail
cd "$(dirname "$0")/.."

mapfile -t files < <(find crates tests examples -name '*.rs' -o -name '*.md' | sort)

mapfile -t deleted < <(
  grep -nwE '(Shard)Plan|(Sharded)Pool|(par_map_arc)_sharded|(par_chunks)_sharded|(par_reduce)_sharded|(resolve)_shards' \
    "${files[@]}" || true
)
if [[ ${#deleted[@]} -ne 0 ]]; then
  echo "error: a deleted shard name is named again:" >&2
  printf '  %s\n' "${deleted[@]}" >&2
  echo "  (one ThreadPool runs every phase; there is no shard axis)" >&2
  exit 1
fi

# forwarder name -> the only files that may name it
declare -A home=(
  [with_shards]="crates/par/src/config.rs"
  [sharded_pool]="crates/par/src/config.rs"
  [par_sum_sharded]="crates/bgv/src/batch.rs crates/bgv/src/lib.rs"
  [par_sum_chunks_sharded]="crates/bgv/src/batch.rs crates/bgv/src/lib.rs"
)
stray=()
for name in "${!home[@]}"; do
  mapfile -t named < <(grep -nw "$name" "${files[@]}" || true)
  for hit in "${named[@]}"; do
    file=${hit%%:*}
    [[ " ${home[$name]} " == *" $file "* ]] || stray+=("$hit")
  done
done
if [[ ${#stray[@]} -ne 0 ]]; then
  echo "error: a shard forwarder is named outside its defining files:" >&2
  printf '  %s\n' "${stray[@]}" >&2
  echo "  (call the single-pool kernel; only the benchmark's by-name calls keep the forwarder)" >&2
  exit 1
fi
echo "ok: one pool across ${#files[@]} files; ${#home[@]} shard forwarders only in their defining files"
