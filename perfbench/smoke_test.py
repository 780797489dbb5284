#!/usr/bin/env python3
"""Self-check of the benchmark at tiny scale; finishes in about 25 s.

Run from the root of a checkout:

  python3 perfbench/smoke_test.py

Runs every workload in BENCHMARK.json with --smoke, untraced and traced,
and asserts that the result line has exactly the contract's keys, that
every end-to-end (untraced) or per-layer (traced) metric is present with
the unit BENCHMARK.json gives it, and that no operation failed
(failed_frac = failed / attempted = 0). Exits 1 on the first violation.
"""

import json
import math
import subprocess
import sys
from pathlib import Path


def check_result(result, spec_metrics, label):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, (
        f"{label}: result keys {sorted(result)}")
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, (
        f"{label}: attempted {result['attempted']!r}")
    assert result["failed"] == 0 and result["correct"] is True, (
        f"{label}: {result['failed']} of {result['attempted']} failed")
    want = {m["name"]: m["unit"] for m in spec_metrics}
    got = result["metrics"]
    assert set(got) == set(want), (
        f"{label}: metrics differ: missing {sorted(set(want) - set(got))}, "
        f"extra {sorted(set(got) - set(want))}")
    for name, unit in want.items():
        value = got[name]["value"]
        assert got[name]["unit"] == unit, f"{label}: {name} unit {got[name]}"
        assert isinstance(value, (int, float)) and math.isfinite(value), (
            f"{label}: {name} = {value!r}")


def main():
    spec = json.loads(Path("BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        for trace in (0, 1):
            label = f"{workload['name']} trace={trace}"
            proc = subprocess.run(
                [*spec["command"], "--workload", workload["name"], "--seed",
                 "1", "--seconds", "1", "--trace", str(trace), "--smoke"],
                capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(f"FAIL {label}: exit {proc.returncode}\n{proc.stderr}")
                sys.exit(1)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            metrics = spec["per_layer"] if trace else spec["end_to_end"]
            try:
                check_result(result, metrics, label)
                if not trace:
                    for m in metrics:
                        assert result["metrics"][m["name"]]["value"] > 0, (
                            f"{label}: {m['name']} is not positive")
            except AssertionError as e:
                print(f"FAIL {e}")
                sys.exit(1)
            print(f"ok   {label}: {result['attempted']} operations, "
                  f"{len(result['metrics'])} metrics")


if __name__ == "__main__":
    main()
