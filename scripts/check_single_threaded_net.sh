#!/usr/bin/env bash
# Guards "no threads in the network layer".
#
# The fabric in `crates/net` runs on its caller's thread: the evented
# fabric is a single object that acts as every party, and an evented
# endpoint is one party's view of such a fabric, shared through an
# `Rc`. The design this replaced kept a blocking
# per-party endpoint behind a mutex and a condvar, with a waiter
# registry and quiescence firing so that parties on separate threads
# could wait for each other; from one thread, a receive on an empty
# link could wait forever. Fabric selection likewise rides in config,
# not in a process-wide default. This script fails if, tests included,
# anything under `crates/net/src` names a synchronisation primitive or
# a process-global: `Mutex`, `Condvar`, `RwLock`, `OnceLock`, `Arc` or
# `thread::`.
#
# Usage: scripts/check_single_threaded_net.sh   (run from anywhere)

set -euo pipefail
cd "$(dirname "$0")/.."

mapfile -t files < <(find crates/net/src -name '*.rs' | sort)

mapfile -t hits < <(grep -nE '\b(Mutex|Condvar|RwLock|OnceLock|Arc)\b|thread::' "${files[@]}" || true)
if [[ ${#hits[@]} -ne 0 ]]; then
  echo "error: the network layer names a synchronisation primitive or a process-global:" >&2
  printf '  %s\n' "${hits[@]}" >&2
  echo "  (fabrics run on their caller's thread; endpoints share one fabric through an Rc)" >&2
  exit 1
fi
echo "ok: single-threaded network layer across ${#files[@]} files"
