#!/usr/bin/env bash
# servemon_smoke.sh EXAMPLES_DIR
#
# End-to-end smoke test of the service observability pipeline: run
# xgyro_serve with a streamed event log + periodic monitor snapshots + an
# SLO, then drive xgyro_servemon over the log (--validate, --summary with
# the sketch-vs-exact cross-check, --trace-out into the Chrome trace
# validator's schema), check event-log determinism across two identical
# runs, and require that an aborted run still leaves a schema-valid
# partial log ending in service.aborted. Registered with ctest as
# `servemon_smoke` (ci.sh gate 10).
set -euo pipefail

EXAMPLES_DIR=${1:-build/examples}
SERVE="$EXAMPLES_DIR/xgyro_serve"
MON="$EXAMPLES_DIR/xgyro_servemon"
REPORT="$EXAMPLES_DIR/xgyro_report"
for bin in "$SERVE" "$MON"; do
  if [[ ! -x "$bin" ]]; then
    echo "servemon_smoke: missing binary $bin" >&2
    exit 1
  fi
done

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

GEN="seed=7;n=12;rate=2;tenants=2;sigs=2;prios=2"

# A full service run with the whole observability plane on.
"$SERVE" --gen "$GEN" --nodes 2 --ranks-per-node 4 --window 0.5 \
         --events-out "$WORK/serve.events.jsonl" --metrics-every 1 \
         --slo "wait=1e5;target=0.5;burn=100" \
         > "$WORK/serve.stdout"
grep -q "event log written to" "$WORK/serve.stdout"

# The log must validate (legal state machines, exactly-once terminals)
# and end cleanly.
"$MON" --events "$WORK/serve.events.jsonl" --validate | tee "$WORK/validate.out"
grep -q "validation: OK" "$WORK/validate.out"
grep -q "service.end" "$WORK/validate.out"
grep -q "monitor.snapshot" "$WORK/validate.out"

# The replayed sketches must reproduce the recorded exact percentiles, the
# calibration gate must hold, and the (deliberately lax) SLO must not burn.
"$MON" --events "$WORK/serve.events.jsonl" --summary \
       --slo "wait=1e5;target=0.5;burn=100" --json "$WORK/servemon.json" \
       | tee "$WORK/summary.out"
grep -q "sketch agrees" "$WORK/summary.out"
grep -q "calibrated" "$WORK/summary.out"
grep -q '"schema": "xgyro.servemon"' "$WORK/servemon.json"

# The trace view must be a valid Chrome trace document (when xgyro_report
# is built alongside, validate it for real).
"$MON" --events "$WORK/serve.events.jsonl" --trace-out "$WORK/trace.json" \
       > /dev/null
grep -q '"schema": "xgyro.trace"' "$WORK/trace.json"
if [[ -x "$REPORT" ]]; then
  "$REPORT" --validate-trace "$WORK/trace.json" > /dev/null
fi

# Determinism: two identical runs must produce byte-identical logs.
"$SERVE" --gen "$GEN" --nodes 2 --ranks-per-node 4 --window 0.5 \
         --events-out "$WORK/serve2.events.jsonl" --metrics-every 1 \
         --slo "wait=1e5;target=0.5;burn=100" > /dev/null
cmp "$WORK/serve.events.jsonl" "$WORK/serve2.events.jsonl"

# Abort path: an unwritable checkpoint root fails the run (exit 1) midway,
# and the flushed partial log must still validate, ending in
# service.aborted.
if "$SERVE" --gen "$GEN" --nodes 2 --ranks-per-node 4 --window 0.5 \
            --checkpoint-dir /proc/xg-no-such-dir \
            --events-out "$WORK/aborted.events.jsonl" \
            > "$WORK/aborted.stdout" 2>&1; then
  echo "servemon_smoke: unwritable checkpoint dir did not fail the run" >&2
  exit 1
fi
"$MON" --events "$WORK/aborted.events.jsonl" --validate \
  | tee "$WORK/aborted.validate.out"
grep -q "ABORTED RUN" "$WORK/aborted.validate.out"
grep -q "validation: OK" "$WORK/aborted.validate.out"

# A corrupted log (duplicate record) must be rejected with a clean exit 1.
head -n 5 "$WORK/serve.events.jsonl" > "$WORK/corrupt.events.jsonl"
sed -n '5p' "$WORK/serve.events.jsonl" >> "$WORK/corrupt.events.jsonl"
if "$MON" --events "$WORK/corrupt.events.jsonl" --validate \
     > "$WORK/corrupt.out" 2>&1; then
  echo "servemon_smoke: duplicate record was not rejected" >&2
  exit 1
fi
grep -q "duplicate, gap, or out-of-order" "$WORK/corrupt.out"

echo "servemon_smoke: observability pipeline validated"
