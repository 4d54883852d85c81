#!/usr/bin/env bash
# Guards "one MPC engine".
#
# Every committee computation — keygen, the post-aggregation evaluator,
# the mechanism vignettes, and committee failover under injected faults
# — runs on `mpc::MpcEngine`, one object acting as every member over a
# sim or evented fabric. The design this replaced kept a second engine
# for failover alone: a `Party` per OS thread on blocking endpoints, a
# mutex-shared dealer, and an `MpcOps` trait so protocol code could run
# on both. It sent the same frames as the engine and did nothing the
# faulted evented fabric cannot. This script fails if, tests included:
#
#   * anything under `crates/mpc/src` or `crates/runtime/src/net_exec.rs`
#     declares `trait MpcOps` or `struct Party`;
#   * either names `thread::` — a committee is one engine on one thread.
#
# Usage: scripts/check_one_mpc_engine.sh   (run from anywhere)

set -euo pipefail
cd "$(dirname "$0")/.."

mapfile -t files < <(find crates/mpc/src -name '*.rs' | sort)
files+=(crates/runtime/src/net_exec.rs)

fail=0
report() {
  echo "error: $1" >&2
  printf '  %s\n' "${@:3}" >&2
  echo "  ($2)" >&2
  fail=1
}

mapfile -t engines < <(grep -nE 'trait MpcOps|struct Party\b' "${files[@]}" || true)
if [[ ${#engines[@]} -ne 0 ]]; then
  report "a second MPC engine is declared:" \
    "protocols take &mut MpcEngine; failover runs it on a faulted evented fabric" \
    "${engines[@]}"
fi

mapfile -t threads < <(grep -nE 'thread::' "${files[@]}" || true)
if [[ ${#threads[@]} -ne 0 ]]; then
  report "committee code spawns or names threads:" \
    "one engine acts as every member on one thread" "${threads[@]}"
fi

if [[ $fail -ne 0 ]]; then
  exit 1
fi
echo "ok: one MPC engine across ${#files[@]} files, no second engine, no threads"
