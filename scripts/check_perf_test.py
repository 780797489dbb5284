#!/usr/bin/env python3
"""Unit test of check_perf.py: every gate fails on a raw record doctored
to break it, and a failing section does not stop the later ones.
Run: python3 scripts/check_perf_test.py (registered in ctest)."""

import copy
import json
import os
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import check_perf  # noqa: E402

check_perf.say = lambda msg, err=False: None

STAMP = {"host": "h", "nproc": 4, "cpu_model": "CPU A", "simd_isa": "avx512",
         "build_type": "RelWithDebInfo", "git_commit": None,
         "src_sha256": "0"}
BASELINE = {"baseline_ns": {"BM_Permanent/24": 100.0,
                            "BM_GraphBuildHK/4096": 100.0,
                            "BM_AssessRiskBisection/8192": 40e6},
            "pre_opt_ns": {"BM_Permanent/24": 1000.0}, "provenance": STAMP}


def kernel_raw(times, slower=()):
    """One repetition per kernel at `times`, plus one per `slower` entry."""
    runs = list(times.items()) + list(slower)
    return {"context": {"anonsafe_simd_isa": "avx512"},
            "benchmarks": [{"run_name": n, "run_type": "iteration",
                            "time_unit": "ns", "cpu_time": t}
                           for n, t in runs]}


def bench(run_name, cpu_time, **counters):
    return dict(name=run_name, run_name=run_name, time_unit="ns",
                cpu_time=cpu_time, **counters)


KERNELS = kernel_raw({"BM_Permanent/24": 100.0, "BM_GraphBuildHK/4096": 100.0})
SERVE = {"skipped": False, "connections": 1024, "errors": 0, "rps": 5000.0,
         "latency": {"p50_ms": 1.0},
         "batch": {"single_reps_ms": [1.0, 0.5, 0.9],
                   "batch16_reps_ms": [1.3, 1.0, 2.9], "bit_identical": True}}
DEFENSE = {"threads": 8, "bit_identical": True, "frontier_size": 18,
           "feasible": 18}
ADVERSARY = {"adversaries": {"interval": {"median_ms": 40.0}},
             "bit_identical": True}
PLANNER = {"benchmarks": [
    bench("BM_DirectMonolithic/1/iterations:1", 2e5),
    bench("BM_PlannerVsMonolithic/1", 9e4, items=12, exact=1.0),
    bench("BM_DirectMonolithic/2/iterations:1", 7e8),
    bench("BM_PlannerVsMonolithic/2", 1.6e5, items=24, exact=1.0),
    bench("BM_PlannerBeyondMonolithic", 3e5, items=48, largest_block=12,
          exact=1.0, expected_cracks=5.4)]}


def doctored(record, edit):
    edit(record := copy.deepcopy(record))
    return record


def failures(gate, raw, *args):
    """The gate's failures, none of them the malformed-record catch-all."""
    got = []
    check_perf.gated("section", got, gate, raw, *args)
    assert not any("malformed" in f for f in got), got
    return got


class KernelGateTest(unittest.TestCase):
    def check(self, raw=KERNELS, stamp=STAMP, rebaseline=False):
        return failures(check_perf.gate_kernels, raw, BASELINE, stamp,
                        rebaseline)

    def test_regression_over_tolerance_fails(self):
        # A slower repetition beside each one: the fastest is gated.
        for t, n in ((116.0, 1), (114.0, 0), (100.0, 0)):
            raw = kernel_raw({"BM_Permanent/24": 100.0,
                              "BM_GraphBuildHK/4096": t},
                             slower=[("BM_GraphBuildHK/4096", 200.0)])
            self.assertEqual(len(self.check(raw)), n, t)

    def test_empty_filter_or_time_unit_fails(self):
        self.assertTrue(self.check(kernel_raw({})))
        ms = lambda r: r["benchmarks"][0].update(time_unit="ms")  # noqa
        self.assertTrue(self.check(doctored(KERNELS, ms)))
        self.assertTrue(failures(check_perf.gate_planner,
                                 doctored(PLANNER, ms)))

    def test_other_stamp_is_refused_unless_rebaselining(self):
        for key, value in (("simd_isa", "avx2"), ("cpu_model", "CPU B"),
                           ("build_type", "Debug")):
            stamp = dict(STAMP, **{key: value})
            self.assertTrue(self.check(stamp=stamp), key)
            self.assertEqual(self.check(stamp=stamp, rebaseline=True), [])
        self.assertEqual(self.check(stamp=dict(STAMP, host="other")), [])

    def test_simd_floor_holds_even_when_rebaselining(self):
        raw = kernel_raw({"BM_Permanent/24": 400.0})  # 2.5x vs pre-opt
        self.assertTrue(self.check(raw, rebaseline=True))
        scalar = dict(STAMP, simd_isa="scalar")
        self.assertEqual(self.check(raw, stamp=scalar, rebaseline=True), [])


class SectionGateTest(unittest.TestCase):
    CASES = {
        "serve": (check_perf.gate_serve, SERVE, (), [
            lambda r: r.update(connections=999),
            lambda r: r.update(errors=1),
            lambda r: r["batch"].update(batch16_reps_ms=[3.1, 1.5, 4.0]),
            lambda r: r["batch"].update(bit_identical=False)]),
        "defense": (check_perf.gate_defense, DEFENSE, (), [
            lambda r: r.update(threads=1),
            lambda r: r.update(bit_identical=False),
            lambda r: r.update(frontier_size=0),
            lambda r: r.update(feasible=0)]),
        "adversary": (check_perf.gate_adversary, ADVERSARY, (BASELINE,), [
            lambda r: r["adversaries"].pop("interval"),
            lambda r: r["adversaries"]["interval"].update(median_ms=61.0),
            lambda r: r.update(bit_identical=False)]),
        "planner": (check_perf.gate_planner, PLANNER, (), [
            lambda r: r["benchmarks"].pop(0),
            lambda r: r["benchmarks"].pop(3),
            lambda r: r["benchmarks"][3].update(exact=0.0),
            lambda r: r["benchmarks"].pop(4),
            lambda r: r["benchmarks"][4].update(exact=0.0)]),
    }

    def test_clean_records_pass(self):
        for name, (gate, record, args, _) in self.CASES.items():
            self.assertEqual(failures(gate, record, *args), [], name)
        # Load gates are vacuous without TCP; 1.5x is the adversary bound.
        self.assertEqual(failures(check_perf.gate_serve, doctored(
            SERVE, lambda r: r.update(skipped=True, errors=3))), [])
        # The batch ratio is fastest over fastest: slow repetitions (a
        # median of 8x here) do not fail it, and the ratio is recorded.
        noisy = doctored(SERVE, lambda r: r["batch"].update(
            single_reps_ms=[0.5] * 3, batch16_reps_ms=[1.4, 4.0, 4.0]))
        self.assertEqual(failures(check_perf.gate_serve, noisy), [])
        self.assertAlmostEqual(noisy["batch"]["ratio_vs_single"], 2.8)
        self.assertEqual(noisy["batch"]["batch16_ms"], 1.4)
        self.assertEqual(failures(check_perf.gate_adversary, doctored(
            ADVERSARY, lambda r: r["adversaries"]["interval"].update(
                median_ms=59.0)), BASELINE), [])

    def test_each_doctored_record_fails(self):
        for name, (gate, record, args, edits) in self.CASES.items():
            for i, edit in enumerate(edits):
                self.assertTrue(failures(gate, doctored(record, edit), *args),
                                f"{name} edit {i}")


def fake_bench(tmp, name, record):
    """An executable in `tmp` that prints `record`, like a bench binary."""
    path = Path(tmp) / name
    path.write_text(f"#!{sys.executable}\n"
                    f"print({json.dumps(json.dumps(record))})\n")
    path.chmod(0o755)
    return str(path)


class RunTest(unittest.TestCase):
    def test_failing_kernel_section_lets_later_sections_run(self):
        with tempfile.TemporaryDirectory() as tmp:
            env = dict(os.environ)
            for name, record in (("serve", SERVE), ("defense", DEFENSE),
                                 ("adversary", ADVERSARY),
                                 ("planner", PLANNER)):
                env[f"{name.upper()}_BENCH"] = fake_bench(tmp, name, record)
            baseline = Path(tmp) / "baseline.json"
            baseline.write_text(json.dumps(BASELINE))
            got = check_perf.run(fake_bench(tmp, "kernels", kernel_raw({})),
                                 env=env, out_dir=tmp, baseline_path=baseline)
            self.assertEqual(got, ["kernels: benchmark filter matched "
                                   "nothing"])
            for name in ("serve", "defense", "adversary", "planner"):
                doc = json.loads((Path(tmp) / f"BENCH_{name}.json")
                                 .read_text())
                self.assertEqual(set(doc["provenance"]), set(STAMP), name)

    def test_rebaseline_rewrites_only_gated_kernels(self):
        with tempfile.TemporaryDirectory() as tmp:
            bench = fake_bench(tmp, "kernels", kernel_raw(
                {"BM_Permanent/24": 90.0, "BM_ReadFimi": 7.0}))
            env = dict(os.environ, **{f"{n}_BENCH": "/nonexistent" for n in
                                      ("SERVE", "DEFENSE", "ADVERSARY",
                                       "PLANNER")})
            path = Path(tmp) / "baseline.json"
            for before, want in (
                    ({"BM_Permanent/24": 100.0, "BM_SamplerProbe/8192": 5.0},
                     {"BM_Permanent/24": 90.0}),
                    ({}, {"BM_Permanent/24": 90.0, "BM_ReadFimi": 7.0})):
                path.write_text(json.dumps(dict(BASELINE,
                                                baseline_ns=before)))
                check_perf.run(bench, rebaseline=True, env=env,
                               out_dir=tmp, baseline_path=path)
                got = json.loads(path.read_text())
                self.assertEqual(got["baseline_ns"], want)
                self.assertEqual(got["pre_opt_ns"], BASELINE["pre_opt_ns"])
                self.assertEqual(set(got["provenance"]), set(STAMP))
                self.assertNotEqual(got["provenance"], STAMP)

    def test_effective_build_type(self):
        with tempfile.TemporaryDirectory() as tmp:
            cache = Path(tmp) / "CMakeCache.txt"
            for value, want in (("", "RelWithDebInfo"),
                                ("Release", "Release")):
                cache.write_text(f"CMAKE_BUILD_TYPE:STRING={value}\n")
                self.assertEqual(check_perf.build_type(Path(tmp) / "b" / "x"),
                                 want)


if __name__ == "__main__":
    unittest.main()
