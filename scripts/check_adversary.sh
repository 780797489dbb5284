#!/usr/bin/env bash
# End-to-end validation of the adversary registry surface:
#   1. `report --json --adversary=<spec>` works for every registered
#      adversary; non-default specs carry `"adversary"` provenance in
#      the recipe sub-object, the default carries none (historical
#      bytes),
#   2. each adversary's report JSON is byte-identical at 1 and 8
#      threads (the exec engine's determinism contract holds through
#      the registry),
#   3. `assess` prints an `adversary:` provenance line exactly for
#      non-default specs; `plan` accepts unweighted adversaries and
#      refuses weighted ones with the estimator layer's one
#      weighted-model message (the recipe's wording),
#   4. unknown names and malformed params are refused on every layer:
#      CLI exits non-zero, serve answers invalid_params,
#   5. the serve `assess_risk` verb with an `adversary` param embeds
#      exactly the document the CLI prints for the same spec, and
#      server_info advertises the registry in fixed order.
#
# Usage:
#   scripts/check_adversary.sh [path/to/anonsafe]
#
# Exits non-zero on the first failed check.
set -euo pipefail
cd "$(dirname "$0")/.."

CLI="${1:-build/src/tools/anonsafe}"
if [[ ! -x "$CLI" ]]; then
  echo "check_adversary: CLI not found at $CLI (build first)" >&2
  exit 1
fi

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT
data="$workdir/sample.dat"

fail() { echo "check_adversary: FAIL: $*" >&2; exit 1; }

# The same deterministic 12-transaction / 5-item dataset the serve and
# defense checks use: three frequency groups, one rare item.
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
2 3 4 5
1 5
EOF

SPECS=("interval" "probabilistic:span=2,sigma=1" "exact_support:k=2")

# ------------------------- 1+2. CLI sweep, provenance, thread identity
for spec in "${SPECS[@]}"; do
  name="${spec%%:*}"
  t1="$workdir/${name}_t1.json"
  t8="$workdir/${name}_t8.json"
  timeout 120 "$CLI" report "$data" --json --adversary="$spec" --threads=1 \
    > "$t1" || fail "report --adversary=$spec --threads=1 exited non-zero"
  timeout 120 "$CLI" report "$data" --json --adversary="$spec" --threads=8 \
    > "$t8" || fail "report --adversary=$spec --threads=8 exited non-zero"
  diff -q "$t1" "$t8" >/dev/null \
    || fail "report JSON for $spec differs between 1 and 8 threads"
  if [[ "$name" == "interval" ]]; then
    grep -q '"adversary"' "$t1" \
      && fail "default interval report must omit adversary provenance"
    # The explicit default spells the same bytes as no flag at all.
    timeout 120 "$CLI" report "$data" --json > "$workdir/noflag.json"
    diff -q "$t1" "$workdir/noflag.json" >/dev/null \
      || fail "--adversary=interval differs from the flagless default"
  else
    grep -q "\"adversary\":\"$name\"" "$t1" \
      || fail "report for $spec lacks adversary provenance"
    grep -q '"adversary_params"' "$t1" \
      || fail "report for $spec lacks adversary_params provenance"
  fi
done

# --------------------------------- 3. assess provenance line, plan verb
out="$workdir/assess_default.txt"
timeout 120 "$CLI" assess "$data" > "$out" || fail "assess exited non-zero"
grep -q "^adversary:" "$out" \
  && fail "default assess must not print an adversary line"
out="$workdir/assess_prob.txt"
timeout 120 "$CLI" assess "$data" --adversary="probabilistic:span=2,sigma=1" \
  > "$out" || fail "assess --adversary=probabilistic exited non-zero"
grep -q "^adversary: probabilistic:span=2,sigma=1$" "$out" \
  || fail "assess lacks the probabilistic provenance line"

timeout 120 "$CLI" plan "$data" --adversary="exact_support:k=2" \
  > "$workdir/plan.txt" || fail "plan --adversary=exact_support failed"
grep -q "blocks:" "$workdir/plan.txt" || fail "plan output lacks block summary"
plan_err="$workdir/plan_err.txt"
if timeout 120 "$CLI" plan "$data" --adversary="probabilistic" \
     > /dev/null 2> "$plan_err"; then
  fail "plan must refuse weighted adversaries"
fi
grep -qF "produces weighted models, which estimator=auto does not support" \
    "$plan_err" \
  || fail "weighted-plan refusal should use the one weighted-model message: $(cat "$plan_err")"

# ------------------------------------------------- 4. CLI error paths
for bad in "laplace" "interval:bogus=1" "probabilistic:sigma=-1" \
           "exact_support:k=0"; do
  timeout 120 "$CLI" report "$data" --json --adversary="$bad" \
    > /dev/null 2>&1 && fail "CLI accepted bad adversary spec '$bad'"
done

# ---------------------------------------------------- 5. serve surface
key="$(printf '%s\n' \
  "{\"schema_version\":1,\"id\":0,\"verb\":\"load_dataset\",\"params\":{\"path\":\"$data\"}}" \
  "{\"schema_version\":1,\"id\":0,\"verb\":\"shutdown\"}" \
  | timeout 60 "$CLI" serve \
  | sed -n 's/.*"dataset":"\([0-9a-f]*\)".*/\1/p' | head -1)"
[[ "$key" =~ ^[0-9a-f]{16}$ ]] || fail "could not learn dataset key (got '$key')"

session="$workdir/session.jsonl"
cat > "$session" <<EOF
{"schema_version":1,"id":1,"verb":"load_dataset","params":{"path":"$data"}}
{"schema_version":1,"id":2,"verb":"assess_risk","params":{"dataset":"$key","adversary":"interval"}}
{"schema_version":1,"id":3,"verb":"assess_risk","params":{"dataset":"$key","adversary":"probabilistic:span=2,sigma=1"}}
{"schema_version":1,"id":4,"verb":"assess_risk","params":{"dataset":"$key","adversary":"exact_support:k=2"}}
{"schema_version":1,"id":5,"verb":"assess_risk","params":{"dataset":"$key","adversary":"laplace"}}
{"schema_version":1,"id":6,"verb":"assess_risk","params":{"dataset":"$key","adversary":"exact_support:k=0"}}
{"schema_version":2,"id":7,"verb":"server_info"}
{"schema_version":1,"id":8,"verb":"shutdown"}
EOF
responses="$workdir/responses.jsonl"
timeout 120 "$CLI" serve < "$session" > "$responses" \
  || fail "serve session did not complete cleanly"
[[ "$(wc -l < "$responses")" -eq 8 ]] \
  || fail "expected 8 response lines, got $(wc -l < "$responses")"

# Per-adversary bit-identity between serve and the one-shot CLI.
line=2
for spec in "${SPECS[@]}"; do
  name="${spec%%:*}"
  sed -n "${line}p" "$responses" | grep -q "\"id\":$line,\"ok\":true" \
    || fail "assess_risk ($spec) failed: $(sed -n "${line}p" "$responses")"
  sed -n "${line}p" "$responses" \
    | sed 's/.*"report":\({.*}\)}}$/\1/' > "$workdir/srv_$name.json"
  diff -q "$workdir/${name}_t1.json" "$workdir/srv_$name.json" >/dev/null \
    || { diff "$workdir/${name}_t1.json" "$workdir/srv_$name.json" >&2 || true
         fail "serve report for $spec differs from CLI report --json"; }
  line=$((line + 1))
done

# Unknown name and out-of-range param are invalid_params, not transport
# errors — the session keeps serving afterwards.
for line in 5 6; do
  sed -n "${line}p" "$responses" | grep -q '"code":"invalid_params"' \
    || fail "bad adversary (response $line) not refused with invalid_params: \
$(sed -n "${line}p" "$responses")"
done

# server_info advertises the registry in fixed order.
info="$(sed -n '7p' "$responses")"
grep -q '"adversaries":\[{"name":"interval".*{"name":"probabilistic".*{"name":"exact_support"' \
  <<<"$info" || fail "server_info lacks the adversary registry in order"
grep -q '"drained":true' < <(sed -n '8p' "$responses") \
  || fail "shutdown response missing drained:true"

echo "check_adversary: OK (CLI sweep + provenance, thread identity, plan gating, error paths, serve parity, server_info registry)"
