#!/usr/bin/env bash
# check_determinism.sh BUILD_DIR
#
# End-to-end determinism check for the simulated runtime: run the same
# fault-injected ensemble job twice through xgyro_cli with an identical
# seed and require bitwise-identical stdout and timing logs. Any
# nondeterminism in the schedule, the fault layer, or the accounting
# shows up as a diff and fails the check (registered with ctest as
# `check_determinism_script`). Two CLI behaviours ride along: an
# unrecovered kill exits 2 with a structured rank failure, and a run
# resumed from --checkpoint-dir snapshots prints the same member table as
# an uninterrupted run.
set -euo pipefail

BUILD_DIR=${1:-build}
CLI="$BUILD_DIR/examples/xgyro_cli"
if [[ ! -x "$CLI" ]]; then
  echo "check_determinism: missing binary $CLI" >&2
  exit 1
fi

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

FAULTS="seed=7;straggler=1x1.5;jitter=1x0.25;delay=0.2x2e-5"
run() {
  # The "timing log written to <path>" line names the per-run temp file;
  # drop it so the diff sees only schedule/accounting output.
  "$CLI" --ensemble examples/inputs/input.xgyro \
         --ranks-per-sim 2 --intervals 1 \
         --faults "$FAULTS" \
         --timing-out "$WORK/$1.timing" \
    | grep -v '^timing log written to ' > "$WORK/$1.stdout"
}

run a
run b

fail=0
if ! diff -u "$WORK/a.stdout" "$WORK/b.stdout"; then
  echo "check_determinism: stdout differs between identical-seed runs" >&2
  fail=1
fi
if ! diff -u "$WORK/a.timing" "$WORK/b.timing"; then
  echo "check_determinism: timing log differs between identical-seed runs" >&2
  fail=1
fi

# The fault layer must actually have injected something, or the check
# proves nothing about fault-path determinism.
if ! grep -q "fault injection:" "$WORK/a.stdout"; then
  echo "check_determinism: no fault-injection summary in output" >&2
  fail=1
fi

# Without --checkpoint-dir a kill that fires inside the run is not
# recovered: exit 2 with the structured rank-failure report on stderr.
# (The kill time is below the run's ~1.4e-3 s virtual makespan.)
rc=0
"$CLI" --ensemble examples/inputs/input.xgyro --ranks-per-sim 2 \
       --intervals 2 --faults "seed=1;kill=1@0.0005" \
  > "$WORK/kill.stdout" 2> "$WORK/kill.stderr" || rc=$?
if [[ $rc -ne 2 ]] || ! grep -q "structured rank failure" "$WORK/kill.stderr"
then
  echo "check_determinism: unrecovered kill should exit 2 with a structured" \
       "rank failure (got exit $rc)" >&2
  cat "$WORK/kill.stderr" >&2
  fail=1
fi

# Resuming from elastic snapshots continues the run exactly: 2 intervals,
# then --resume to 4, prints the member table of an uninterrupted 4-interval
# run. The resumed run steps (and snapshots) only intervals 3 and 4.
ensemble() {
  "$CLI" --ensemble examples/inputs/input.xgyro --ranks-per-sim 2 "$@"
}
members() {  # the member table: from its header to the next blank line
  awk '/^member /{p=1} /^$/{if (p) q=1} p && !q' "$1"
}
ensemble --intervals 4 > "$WORK/direct.stdout"
ensemble --intervals 2 --checkpoint-dir "$WORK/ckpt" > /dev/null
ensemble --intervals 4 --checkpoint-dir "$WORK/ckpt" --resume \
  > "$WORK/resumed.stdout"
members "$WORK/direct.stdout" > "$WORK/direct.members"
members "$WORK/resumed.stdout" > "$WORK/resumed.members"
if [[ ! -s "$WORK/direct.members" ]] ||
   ! diff -u "$WORK/direct.members" "$WORK/resumed.members"; then
  echo "check_determinism: resumed run differs from the uninterrupted run" >&2
  fail=1
fi
if ! grep -q "^checkpointing: 2 snapshot(s) committed" "$WORK/resumed.stdout"
then
  echo "check_determinism: --resume did not continue from interval 2" >&2
  fail=1
fi

if [[ $fail -ne 0 ]]; then
  exit 1
fi
echo "check_determinism: identical-seed runs are bitwise identical;" \
     "unrecovered kill exits 2; resume matches the uninterrupted run"
