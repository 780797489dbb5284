#!/usr/bin/env bash
# End-to-end validation of the observability layer through the CLI:
#   1. `--trace-format=chrome` emits trace-event JSON of the shape
#      Perfetto / chrome://tracing loads (displayTimeUnit, a metadata
#      event, "X" complete events with numeric ts/dur),
#   2. `--trace-format=json` emits a parseable span array with
#      name/parent/depth per span,
#   3. `anonsafe serve --log-file=...` writes a JSON-lines access log
#      with the documented per-request schema, and `--log-level=error`
#      silences it (level filtering works end to end),
#   4. an invalid `--trace-format` is rejected,
#   5. a `report` trace covers load and render: top-level
#      `data.read_fimi` and `core.render` spans; with `--json`, stdout
#      stays one JSON document when `--trace-out` or `--metrics-out` is
#      given,
#   6. a `recommend-defense` trace accounts for >= 90% of the sweep: at
#      one thread, the spans under `defense.recommend` (and under its
#      per-candidate `exec.chunk` wrappers) — `defense.index`,
#      `defense.plan`, `defense.apply` and the estimator's — add up to
#      at least 0.9 of its duration on the CONNECT stand-in at x0.2.
#
# Usage:
#   scripts/check_obs.sh [path/to/anonsafe]
#
# Exits non-zero on the first failed check.
set -euo pipefail
cd "$(dirname "$0")/.."

CLI="${1:-build/src/tools/anonsafe}"
if [[ ! -x "$CLI" ]]; then
  echo "check_obs: CLI not found at $CLI (build first)" >&2
  exit 1
fi

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT
data="$workdir/sample.dat"

fail() { echo "check_obs: FAIL: $*" >&2; exit 1; }

cat > "$data" <<'EOF'
1 2 3
1 2
2 3 4
1 3 4
2 4
1 2 4
3 4
1 4
2 3
1 2 3 4
EOF

# --- 1. Chrome trace export --------------------------------------------
trace="$workdir/trace.json"
"$CLI" assess "$data" --trace-format=chrome --trace-out="$trace" \
  > /dev/null || fail "assess with --trace-format=chrome failed"
[[ -s "$trace" ]] || fail "--trace-out wrote no file"

python3 - "$trace" <<'EOF' || fail "chrome trace shape invalid"
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["displayTimeUnit"] == "ms", "displayTimeUnit"
assert doc["otherData"]["trace_id"] == "cli-assess", doc["otherData"]
events = doc["traceEvents"]
assert isinstance(events, list) and len(events) >= 2, "too few events"
assert events[0]["ph"] == "M", "first event must be process metadata"
spans = [e for e in events if e["ph"] == "X"]
assert spans, "no complete events"
for e in spans:
    for key in ("name", "ts", "dur", "pid", "tid", "args"):
        assert key in e, f"event missing {key}"
    assert isinstance(e["ts"], (int, float)) and e["ts"] >= 0
    assert isinstance(e["dur"], (int, float)) and e["dur"] >= 0
    assert e["args"]["trace_id"] == "cli-assess"
names = {e["name"] for e in spans}
assert "recipe.assess_risk" in names, f"missing recipe span: {names}"
EOF

# --- 2. JSON trace export ----------------------------------------------
span_json="$workdir/spans.json"
"$CLI" assess "$data" --trace-format=json --trace-out="$span_json" \
  > /dev/null || fail "assess with --trace-format=json failed"
python3 - "$span_json" <<'EOF' || fail "json trace shape invalid"
import json, sys
spans = json.load(open(sys.argv[1]))
assert isinstance(spans, list) and spans, "expected a non-empty array"
for s in spans:
    for key in ("name", "start_seconds", "duration_seconds",
                "parent", "depth", "annotations"):
        assert key in s, f"span missing {key}"
assert spans[0]["parent"] is None, "first span must be a root"
EOF

# --- 3. Serve access log + level filtering -----------------------------
session="$workdir/session.jsonl"
cat > "$session" <<EOF
{"schema_version":1,"id":1,"verb":"load_dataset","params":{"path":"$data"}}
{"schema_version":1,"id":2,"verb":"shutdown"}
EOF

log="$workdir/access.jsonl"
timeout 60 "$CLI" serve --log-file="$log" < "$session" > /dev/null \
  || fail "serve session (info log) did not complete"
[[ -s "$log" ]] || fail "serve wrote no access log"
python3 - "$log" <<'EOF' || fail "access log schema invalid"
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
requests = [l for l in lines if l.get("event") == "serve.request"]
assert len(requests) == 2, f"expected 2 access-log lines, got {len(requests)}"
for r in requests:
    for key in ("ts", "level", "serial", "verb", "outcome",
                "queue_ms", "exec_ms", "total_ms"):
        assert key in r, f"access log line missing {key}: {r}"
assert requests[0]["verb"] == "load_dataset"
assert requests[0]["outcome"] == "ok"
assert requests[1]["verb"] == "shutdown"
dumps = [l for l in lines if l.get("event") == "serve.flight_recorder_dump"]
assert len(dumps) == 1, "expected one flight-recorder dump on shutdown"
assert dumps[0]["recorded"] == 1, dumps[0]
EOF

quiet_log="$workdir/quiet.jsonl"
timeout 60 "$CLI" serve --log-level=error --log-file="$quiet_log" \
  < "$session" > /dev/null \
  || fail "serve session (error log) did not complete"
if [[ -s "$quiet_log" ]] && grep -q '"event":"serve.request"' "$quiet_log"; then
  fail "--log-level=error still emitted access-log lines"
fi

# --- 4. Flag validation -------------------------------------------------
if "$CLI" assess "$data" --trace-format=jaeger > /dev/null 2>&1; then
  fail "invalid --trace-format was accepted"
fi

# --- 5. Report trace covers load and render ----------------------------
report_spans="$workdir/report_spans.json"
"$CLI" report "$data" --trace-format=json --trace-out="$report_spans" \
  > /dev/null || fail "report with --trace-format=json failed"
python3 - "$report_spans" <<'EOF' || fail "report trace misses load or render"
import json, sys
spans = json.load(open(sys.argv[1]))
roots = [s["name"] for s in spans if s["parent"] is None]
assert roots[0] == "data.read_fimi", f"load is not the first span: {roots}"
assert roots[-1] == "core.render", f"render is not the last span: {roots}"
EOF
# With --json, the trace-out notice goes to stderr: stdout is one document.
"$CLI" report "$data" --json --trace-out="$report_spans" \
  > "$workdir/report.json" || fail "report --json --trace-out failed"
python3 -c 'import json, sys; json.load(open(sys.argv[1]))' \
  "$workdir/report.json" || fail "report --json stdout is not one JSON value"
# So does the metrics-out notice.
"$CLI" report "$data" --json --metrics-out="$workdir/metrics.json" \
  > "$workdir/report.json" || fail "report --json --metrics-out failed"
python3 -c 'import json, sys; json.load(open(sys.argv[1]))' \
  "$workdir/report.json" \
  || fail "report --json --metrics-out stdout is not one JSON value"

# --- 6. Defense sweep trace covers the sweep ---------------------------
connect="$workdir/connect.dat"
"$CLI" generate CONNECT "$connect" --scale=0.2 --seed=1 > /dev/null \
  || fail "generate CONNECT failed"
sweep_spans="$workdir/sweep_spans.json"
"$CLI" recommend-defense "$connect" --threads=1 --trace-format=json \
  --trace-out="$sweep_spans" > /dev/null 2>&1 \
  || fail "recommend-defense with --trace-out failed"
python3 - "$sweep_spans" <<'EOF' || fail "recommend-defense trace covers too little"
import json, sys
spans = json.load(open(sys.argv[1]))
root = next(i for i, s in enumerate(spans) if s["name"] == "defense.recommend")
chunks = {i for i, s in enumerate(spans)
          if s["parent"] == root and s["name"] == "exec.chunk"}
work = [s for s in spans if s["name"] != "exec.chunk" and
        (s["parent"] == root or s["parent"] in chunks)]
names = {s["name"] for s in work}
for want in ("defense.index", "defense.plan", "defense.apply"):
    assert want in names, f"missing {want} span: {sorted(names)}"
covered = sum(s["duration_seconds"] for s in work)
share = covered / spans[root]["duration_seconds"]
assert share >= 0.9, f"spans cover {share:.1%} of defense.recommend"
EOF

echo "check_obs: OK (chrome + json traces valid; access log schema + level filtering; flag validation; report load + render spans; report --json stdout is pure; defense sweep trace covers >= 90%)"
