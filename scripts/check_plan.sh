#!/usr/bin/env bash
# End-to-end validation of the unified estimator layer from the CLI
# (docs/ESTIMATORS.md): drive `anonsafe plan` and the `--estimator`
# knob against a fixed dataset and check that
#   1. `plan` previews the block decomposition (complete-bipartite +
#      singleton blocks at the default delta; finer blocks at delta=0),
#   2. `assess --estimator=auto` reports exact per-block provenance and
#      agrees with the default OE path on the decision,
#   3. `report --json --estimator=auto` embeds estimator, interval_exact
#      and per-block provenance in the report document,
#   4. an unknown estimator name fails with InvalidArgument,
#   5. a weighted adversary is refused by `plan` and by
#      `assess --estimator=auto` with one and the same Unimplemented
#      message, and still assessed by `--estimator=oe`.
#
# Usage:
#   scripts/check_plan.sh [path/to/anonsafe]
#
# Exits non-zero on the first failed check.
set -euo pipefail
cd "$(dirname "$0")/.."

CLI="${1:-build/src/tools/anonsafe}"
if [[ ! -x "$CLI" ]]; then
  echo "check_plan: CLI not found at $CLI (build first)" >&2
  exit 1
fi

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT
data="$workdir/sample.dat"

fail() { echo "check_plan: FAIL: $*" >&2; exit 1; }

# The check_serve.sh dataset: deterministic 12 transactions over 5
# items, so the goldens below never drift. Supports are 7/8/7/8/2 ->
# two frequency groups of two items plus a singleton.
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

# 1a. Default delta (median gap) merges the two mid-frequency groups:
#     one complete K_{4,4} block plus the rare singleton.
plan="$workdir/plan.txt"
"$CLI" plan "$data" > "$plan" || fail "plan verb failed"
grep -qE '\|\s*0\s*\|\s*4\s*\|\s*16\s*\|\s*complete_bipartite\s*\|\s*yes' "$plan" \
  || fail "default-delta plan lacks the K_{4,4} complete block: $(cat "$plan")"
grep -q 'singleton' "$plan" || fail "default-delta plan lacks the singleton block"
grep -q 'blocks: 2 (2 exact), pruned edges: 0' "$plan" \
  || fail "default-delta plan summary drifted: $(tail -1 "$plan")"

# 1b. delta=0 (point-valued belief) refines to one complete block per
#     frequency group.
"$CLI" plan "$data" --delta=0 > "$plan" || fail "plan --delta=0 failed"
[[ "$(grep -c 'complete_bipartite' "$plan")" -eq 2 ]] \
  || fail "delta=0 plan should split into two complete blocks: $(cat "$plan")"
grep -q 'blocks: 3 (3 exact), pruned edges: 0' "$plan" \
  || fail "delta=0 plan summary drifted: $(tail -1 "$plan")"

# 2. The auto estimator routes the interval check through the planner:
#    exact answer with per-block provenance, same decision as OE.
assess_auto="$workdir/assess_auto.txt"
assess_oe="$workdir/assess_oe.txt"
"$CLI" assess "$data" --estimator=auto > "$assess_auto" \
  || fail "assess --estimator=auto failed"
"$CLI" assess "$data" > "$assess_oe" || fail "default assess failed"
grep -q 'interval estimator: auto (exact), 2 block(s)' "$assess_auto" \
  || fail "auto assess lacks exact planner provenance: $(cat "$assess_auto")"
diff <(head -1 "$assess_auto") <(head -1 "$assess_oe") >/dev/null \
  || fail "auto and oe estimators disagree on the disclosure decision"

# 3. The JSON report embeds the estimator provenance (the same document
#    the serve assess_risk verb returns).
report="$workdir/report.json"
"$CLI" report "$data" --json --estimator=auto > "$report" \
  || fail "report --estimator=auto failed"
grep -q '"estimator":"auto"' "$report" \
  || fail "report JSON lacks the estimator name"
grep -q '"interval_exact":true' "$report" \
  || fail "report JSON lacks interval_exact:true"
grep -q '"interval_blocks":\[' "$report" \
  || fail "report JSON lacks per-block provenance"
grep -q '"method":"complete_bipartite"' "$report" \
  || fail "report JSON provenance lacks the complete-bipartite block"

# 4. Unknown estimator names are rejected loudly.
if "$CLI" assess "$data" --estimator=bogus > "$workdir/bogus.txt" 2>&1; then
  fail "assess accepted an unknown estimator name"
fi
grep -q 'InvalidArgument: unknown estimator "bogus"' "$workdir/bogus.txt" \
  || fail "unknown-estimator error message drifted: $(cat "$workdir/bogus.txt")"

# 5. One weighted-model check: `plan` previews the auto estimator, so it
#    refuses a weighted adversary exactly as `assess --estimator=auto`
#    does; the O-estimate honours the weights.
weighted_msg="Unimplemented: adversary 'probabilistic' produces weighted models, which estimator=auto does not support"
if "$CLI" plan "$data" --adversary=probabilistic > "$workdir/wplan.txt" 2>&1; then
  fail "plan accepted a weighted adversary"
fi
if "$CLI" assess "$data" --adversary=probabilistic --estimator=auto \
    > "$workdir/wauto.txt" 2>&1; then
  fail "assess --estimator=auto accepted a weighted adversary"
fi
grep -qF "$weighted_msg" "$workdir/wplan.txt" \
  || fail "plan weighted-adversary message drifted: $(cat "$workdir/wplan.txt")"
diff "$workdir/wplan.txt" "$workdir/wauto.txt" >/dev/null \
  || fail "plan and assess refuse a weighted adversary differently"
"$CLI" assess "$data" --adversary=probabilistic --estimator=oe \
    > "$workdir/woe.txt" 2>&1 \
  || fail "assess --estimator=oe refused a weighted adversary: $(cat "$workdir/woe.txt")"

echo "check_plan: OK (plan previews blocks; auto estimator exact with provenance; unknown name rejected; one weighted-model check)"
