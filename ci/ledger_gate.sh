#!/usr/bin/env bash
# The perf ledger's gate on the rows that repeat: every workload at seed 1,
# its bounded allocation rows held to ci/ledger_baselines.json within the
# row's bound in BENCHMARK.json, and the two replays' served_frac and
# cycle_ok_frac held to no worse than recorded — a replay's answers are a
# function of its tape, so a drop is a changed estimate or a moved tape
# byte (see ci/ledgergate). When a change moves a row on purpose, rerun
# this, paste the measured values into the baselines file and say so in
# the PR.
set -uo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
status=0
for w in replay_city replay_arterial paced_watch paced_read; do
  # Exit 3 is the harness voiding its own run (the generator lagged on a
  # busy runner): retried once, not failed.
  for attempt in 1 2; do
    rc=0
    out=$(bash bench/run.sh --workload "$w" --seed 1 | tail -n 1) || rc=$?
    [ "$rc" = 3 ] || break
    echo "$w: run voided for generator lag (attempt $attempt)" >&2
  done
  if [ "$rc" != 0 ] && [ "$rc" != 1 ]; then
    echo "$w: harness exited $rc" >&2
    status=1
    continue
  fi
  echo "$out" | go run ./ci/ledgergate -workload "$w" || status=1
done
exit $status
