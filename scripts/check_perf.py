#!/usr/bin/env python3
"""Perf gates: one section per bench binary, one gate function over the
raw JSON record that binary prints, and one writer, `emit`, for every
BENCH_<name>.json at the repo root, stamped with the keys and meanings of
perfbench/run.py's provenance. Every section runs; the program exits 1 at
the end and lists all the failures.

  kernels    the fastest of 10 interleaved repetitions vs
             bench/perf_baseline.json, +/-15% (kernels without a
             baseline_ns are not gated); a baseline stamped with another
             cpu_model, simd_isa or build_type is refused; on a vector
             tier BM_Permanent/24 must hold >= 3x over pre_opt_ns (the
             SIMD floor), even under --rebaseline.
  isa sweep  BM_Permanent/24 under each ANONSAFE_FORCE_ISA tier
             (informational, into BENCH_kernels.json).
  serve      >= 1000 connections, no errors (unless loopback TCP is
             unavailable); a batch of 16 < 3x one call (fastest of the
             interleaved repetitions of each), bit-identical.
  defense    1 vs N > 1 threads byte-identical; frontier non-empty and
             with a feasible candidate.
  adversary  bit-identical across threads; interval within 1.5x of the
             BM_AssessRiskBisection/8192 baseline.
  planner    exact on both pairs and on the n = 48 instance the
             monolithic permanent cannot run.

Usage: scripts/check_perf.sh [--rebaseline] [path/to/bench_perf_microbench]
SERVE_BENCH, DEFENSE_BENCH, ADVERSARY_BENCH and PLANNER_BENCH override the
other binaries' paths (unbuilt ones are skipped). --rebaseline rewrites
the baseline_ns entries (every kernel's when there are none) and the
stamp; pre_opt_ns is kept.
"""

import hashlib
import json
import os
import socket
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "bench" / "perf_baseline.json"
TOLERANCE = 0.15
REPETITIONS = 10
FILTER = ("BM_Permanent/(20|22|24)$|BM_PermanentBatch/12$|"
          "BM_SamplerProbe/8192$|BM_GraphBuildHK/4096$|"
          "BM_AssessRiskBisection/8192$|BM_ReadFimi$|"
          "BM_SimilarityBySampling$")
# Timings are comparable only if these stamp fields match.
COMPARABLE_KEYS = ("cpu_model", "simd_isa", "build_type")


def say(msg, err=False):
    print(f"check_perf: {msg}", file=sys.stderr if err else sys.stdout)


def build_type(bench):
    """The effective CMAKE_BUILD_TYPE of the build tree holding `bench`:
    an empty one means RelWithDebInfo, per the top-level CMakeLists."""
    for d in Path(bench).resolve().parents:
        if (d / "CMakeCache.txt").is_file():
            for line in (d / "CMakeCache.txt").read_text().splitlines():
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1] or "RelWithDebInfo"
            return "RelWithDebInfo"
    return "unknown"


def provenance(simd_isa, build):
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                env=env, capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    # Without .git there is no commit: a digest of the sources
    # identifies the program either way.
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return {"host": socket.gethostname(), "nproc": os.cpu_count(),
            "cpu_model": cpu_model, "simd_isa": simd_isa,
            "build_type": build, "git_commit": commit,
            "src_sha256": h.hexdigest()[:16]}


def write_json(path, doc):
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def emit(name, record, stamp, out_dir=ROOT):
    """The one writer of BENCH_<name>.json: `record` plus the stamp."""
    write_json(Path(out_dir) / f"BENCH_{name}.json",
               dict(record, provenance=stamp))
    say(f"BENCH_{name}.json written")


# Each gate takes the raw record a bench binary printed and returns
# (the record to emit, or None; the list of failures).

def gate_kernels(raw, baseline, stamp, rebaseline=False):
    # Other load on the host only adds time, so the fastest repetition
    # is the stable statistic; the baseline is taken the same way.
    current = {}
    for b in raw.get("benchmarks", []):
        if b.get("run_type") == "iteration":
            if b["time_unit"] != "ns":
                return None, [f"unexpected time unit for {b['run_name']}"]
            name = b["run_name"]
            current[name] = min(b["cpu_time"],
                                current.get(name, b["cpu_time"]))
    if not current:
        return None, ["benchmark filter matched nothing"]
    isa = stamp["simd_isa"]
    say(f"simd_isa={isa} cpu_model={stamp['cpu_model']} "
        f"build_type={stamp['build_type']}")
    failures, regressions, faster = [], [], []
    base_stamp = baseline.get("provenance", {})
    differs = [f"{k}={base_stamp[k]!r} (here {stamp[k]!r})"
               for k in COMPARABLE_KEYS
               if k in base_stamp and base_stamp[k] != stamp[k]]
    refused = bool(differs) and not rebaseline
    if refused:
        failures.append(f"baseline was recorded with {', '.join(differs)}: "
                        "not comparable; run scripts/check_perf.sh "
                        "--rebaseline here (or unset ANONSAFE_FORCE_ISA)")
    report = {"note": f"fastest of {REPETITIONS} interleaved repetitions; "
                      "cpu_time in ns; gate is +/-15% vs "
                      "bench/perf_baseline.json",
              "simd_isa": isa,
              "cpu_model": raw.get("context", {}).get("anonsafe_cpu_model",
                                                       "unknown"),
              "kernels": {}}
    for name in sorted(current):
        cur = current[name]
        e = report["kernels"][name] = {"cpu_time_ns": round(cur, 1)}
        base = None if refused else baseline.get("baseline_ns", {}).get(name)
        note = "  [no baseline]"
        if base is not None:
            ratio = cur / base
            e["baseline_ns"], e["vs_baseline"] = base, round(ratio, 3)
            note = f"  [{(ratio - 1) * 100:+.1f}% vs baseline]"
            if ratio > 1.0 + TOLERANCE:
                regressions.append(f"{name}: {cur:.0f}ns vs baseline "
                                   f"{base:.0f}ns ({(ratio - 1) * 100:+.1f}%)")
            elif ratio < 1.0 - TOLERANCE:
                faster.append(name)
        pre = baseline.get("pre_opt_ns", {}).get(name)
        if pre is not None:
            e["pre_opt_ns"], e["speedup_vs_pre_opt"] = pre, round(pre / cur, 2)
            note += f"  ({e['speedup_vs_pre_opt']}x vs pre-opt)"
        say(f"{name}: {cur:.0f}ns{note}")
    if not rebaseline:
        failures += regressions
    if faster:
        say(f"note: {', '.join(faster)} now >15% faster than baseline; "
            "consider scripts/check_perf.sh --rebaseline")
    # pre_opt_ns never rebaselines, so the SIMD floor gates even then.
    # Scalar is exempt: the floor measures the vector lanes.
    speedup = report["kernels"].get("BM_Permanent/24", {}).get(
        "speedup_vs_pre_opt")
    if isa not in ("scalar", "unknown") and speedup is not None \
            and speedup < 3.0:
        failures.append(f"BM_Permanent/24 on isa={isa}: only {speedup}x vs "
                        "pre-opt (SIMD floor: >= 3x)")
    return report, failures


def isa_sweep(raws, baseline):
    """BM_Permanent/24 per forced tier; informational, never gated. A
    forced tier the host lacks clamps down to one already measured, so
    entries are keyed by the tier each run reports."""
    pre = baseline.get("pre_opt_ns", {}).get("BM_Permanent/24")
    sweep = {}
    for raw in raws:
        isa = raw.get("context", {}).get("anonsafe_simd_isa", "unknown")
        for b in raw.get("benchmarks", []):
            if b.get("run_name") == "BM_Permanent/24" and isa not in sweep:
                e = sweep[isa] = {"cpu_time_ns": round(b["cpu_time"], 1)}
                if pre is not None:
                    e["speedup_vs_pre_opt"] = round(pre / b["cpu_time"], 2)
                say(f"isa sweep {isa}: {b['cpu_time']:.0f}ns "
                    f"({e.get('speedup_vs_pre_opt', '?')}x vs pre-opt)")
    return {"note": "BM_Permanent/24 under each ANONSAFE_FORCE_ISA tier "
                    "this host supports; single repetition, informational",
            "BM_Permanent/24": sweep}


def gate_serve(raw):
    failures = []
    if raw.get("skipped"):
        say(f"serve load phase SKIP ({raw.get('skip_reason', '')})")
    else:
        say(f"serve: {raw['connections']} connections, {raw['rps']:.0f} "
            f"req/s, latency {raw['latency']}")
        if raw["connections"] < 1000:
            failures.append(f"only {raw['connections']} connections "
                            "(expected >= 1000)")
        if raw["errors"] != 0:
            failures.append(f"{raw['errors']} request errors under load")
    # In-process, so it gates even without TCP. Each side is timed over
    # interleaved repetitions; a shared host only adds time, so the
    # fastest repetition of each side is the stable statistic (as for
    # the kernels).
    b = raw["batch"]
    b["single_ms"] = min(b["single_reps_ms"])
    b["batch16_ms"] = min(b["batch16_reps_ms"])
    b["ratio_vs_single"] = b["batch16_ms"] / b["single_ms"]
    say(f"serve batch: fastest of {len(b['single_reps_ms'])} repetitions: "
        f"single {b['single_ms']:.3f} ms, batch-of-16 {b['batch16_ms']:.3f} "
        f"ms, ratio {b['ratio_vs_single']:.2f}x")
    if b["ratio_vs_single"] >= 3.0:
        failures.append(f"batch-of-16 is {b['ratio_vs_single']:.2f}x a "
                        "single assess_risk (gate: < 3x)")
    if not b["bit_identical"]:
        failures.append("batch items not bit-identical to sequential singles")
    return raw, failures


def gate_defense(raw):
    say(f"defense: {raw}")
    failures = []
    if raw["threads"] < 2:
        failures.append("thread-identity gate compared 1 thread against 1")
    if not raw["bit_identical"]:
        failures.append("frontier not bit-identical across thread counts")
    if raw["frontier_size"] == 0:
        failures.append("empty Pareto frontier on the CONNECT stand-in")
    if raw["feasible"] == 0:
        failures.append("no feasible defense candidates")
    return raw, failures


def gate_adversary(raw, baseline):
    # 1.5x covers wall clock vs cpu time and harness noise; it catches a
    # registry-indirection regression on the bisection hot path.
    failures = []
    base_ns = baseline.get("baseline_ns", {}).get(
        "BM_AssessRiskBisection/8192")
    interval = raw["adversaries"].get("interval")
    if interval is None:
        failures.append("interval adversary missing from bench_adversary")
    elif base_ns is not None:
        ratio = interval["median_ms"] * 1e6 / base_ns
        interval["vs_bisection_baseline"] = round(ratio, 3)
        if ratio > 1.5:
            failures.append(f"interval adversary {interval['median_ms']:.1f}"
                            f"ms is {ratio:.2f}x the BM_AssessRiskBisection/"
                            "8192 baseline (gate: <= 1.5x)")
    for name, e in raw["adversaries"].items():
        say(f"adversary {name}: {e}")
    if not raw["bit_identical"]:
        failures.append("adversary results not bit-identical across threads")
    return raw, failures


def gate_planner(raw):
    # Decomposition speedups are structural (orders of magnitude), so a
    # timing gate would be noise; exactness is what must hold.
    runs = {}
    for b in raw["benchmarks"]:
        if b["time_unit"] != "ns":
            return None, [f"unexpected time unit for {b['name']}"]
        runs[b["run_name"]] = b
    report = {"note": "block-decomposed planner vs monolithic direct method "
                      "on clustered fixtures (12-item blocks); cpu_time in ns",
              "pairs": {}, "beyond_monolithic": {}}
    failures = []
    for blocks in (1, 2):
        direct = runs.get(f"BM_DirectMonolithic/{blocks}/iterations:1")
        planner = runs.get(f"BM_PlannerVsMonolithic/{blocks}")
        if direct is None or planner is None:
            failures.append(f"missing pair for blocks={blocks}")
            continue
        if planner["exact"] != 1.0:
            failures.append(f"planner inexact at blocks={blocks}")
        pair = report["pairs"][f"blocks={blocks}"] = {
            "items": int(planner["items"]),
            "direct_ns": round(direct["cpu_time"], 1),
            "planner_ns": round(planner["cpu_time"], 1),
            "speedup": round(direct["cpu_time"] / planner["cpu_time"], 1)}
        say(f"planner blocks={blocks}: {pair}")
    c = runs.get("BM_PlannerBeyondMonolithic")
    if c is None:
        return report, failures + ["BM_PlannerBeyondMonolithic missing"]
    report["beyond_monolithic"] = {
        "items": int(c["items"]), "largest_block": int(c["largest_block"]),
        "exact": c["exact"] == 1.0, "expected_cracks": c["expected_cracks"],
        "planner_ns": round(c["cpu_time"], 1)}
    say(f"planner beyond monolithic: {report['beyond_monolithic']}")
    # Beyond the whole-graph permanent, yet exact: every block fits the
    # Ryser cutoff.
    if c["exact"] != 1.0 or c["items"] <= 26 or c["largest_block"] > 26:
        failures.append("beyond-monolithic instance lost exactness")
    return report, failures


def run_json(label, cmd, env, failures):
    """Runs one bench binary; returns the JSON record it printed, or None."""
    proc = subprocess.run([str(c) for c in cmd], stdout=subprocess.PIPE,
                          text=True, env=env)
    if proc.returncode != 0:
        failures.append(f"{label}: {Path(cmd[0]).name} exited with status "
                        f"{proc.returncode}")
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError:
        failures.append(f"{label}: no JSON record on stdout")
        return None


def gated(label, failures, gate, raw, *args):
    """Calls one gate; a record missing a field fails its section only."""
    try:
        record, errs = gate(raw, *args)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        record, errs = None, [f"malformed record ({e!r})"]
    failures += [f"{label}: {f}" for f in errs]
    return record


def run(bench, rebaseline=False, env=None, out_dir=ROOT,
        baseline_path=BASELINE):
    """Runs every section and returns the list of failures."""
    env = dict(os.environ if env is None else env)
    baseline = (json.loads(Path(baseline_path).read_text())
                if Path(baseline_path).exists() else {})
    failures, raw, report = [], None, None
    if os.access(bench, os.X_OK):
        # Interleaving spreads each kernel's repetitions over the whole
        # run, so a slow spell on the host cannot cover all of them.
        raw = run_json("kernels", [
            bench, f"--benchmark_filter={FILTER}",
            f"--benchmark_repetitions={REPETITIONS}",
            "--benchmark_enable_random_interleaving=true",
            "--benchmark_format=json"], env, failures)
    else:
        failures.append(f"kernels: bench binary not found at {bench} "
                        "(build first)")
    stamp = provenance((raw or {}).get("context", {}).get(
        "anonsafe_simd_isa", "unknown"), build_type(bench))
    if raw is not None:
        report = gated("kernels", failures, gate_kernels, raw, baseline,
                       stamp, rebaseline)
    if report is not None:
        # Single repetitions: the tier spread dwarfs run-to-run noise.
        sweep = [run_json("isa sweep", [bench,
                                        "--benchmark_filter=BM_Permanent/24$",
                                        "--benchmark_format=json"],
                          dict(env, ANONSAFE_FORCE_ISA=tier), []) or {}
                 for tier in ("scalar", "avx2", "avx512")]
        report["isa_sweep"] = isa_sweep(sweep, baseline)
        emit("kernels", report, stamp, out_dir)
        if rebaseline:
            # Only the kernels already gated (all of them when none is);
            # `note` says why any other kernel stays ungated.
            gated_names = baseline.get("baseline_ns") or report["kernels"]
            baseline["baseline_ns"] = {
                k: e["cpu_time_ns"] for k, e in report["kernels"].items()
                if k in gated_names}
            baseline["provenance"] = stamp
            write_json(baseline_path, baseline)
            say(f"rebaselined {baseline_path} from this run")

    for name, gate, args in (("serve", gate_serve, ()),
                             ("defense", gate_defense, ()),
                             ("adversary", gate_adversary, (baseline,)),
                             ("planner", gate_planner, ())):
        path = env.get(f"{name.upper()}_BENCH",
                       str(ROOT / "build/bench" / f"bench_{name}"))
        if not os.access(path, os.X_OK):
            say(f"{name} SKIP ({path} not built)", err=True)
            continue
        # bench_planner's monolithic n = 24 permanent costs seconds per
        # iteration, so it runs a single repetition.
        raw = run_json(name, [path] + (["--benchmark_format=json"]
                                       if name == "planner" else []),
                       env, failures)
        record = None if raw is None else gated(name, failures, gate, raw,
                                                *args)
        if record is not None:
            emit(name, record, stamp, out_dir)
    return failures


if __name__ == "__main__":
    rebaseline = sys.argv[1:2] == ["--rebaseline"]
    args = sys.argv[1 + rebaseline:] + [
        str(ROOT / "build/bench/bench_perf_microbench")]
    failures = run(args[0], rebaseline)
    for msg in failures:
        say(f"FAIL: {msg}", err=True)
    say("FAILED" if failures else "OK")
    sys.exit(1 if failures else 0)
