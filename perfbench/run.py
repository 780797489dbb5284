#!/usr/bin/env python3
"""End-to-end benchmark of anonsafe, with a traced per-layer breakdown.

Run from the root of a checkout:

  python3 perfbench/run.py --workload report_dense --seed 1 --trace 0
  python3 perfbench/run.py --workload all --seed 1   # all workloads, e2e
  python3 perfbench/run.py ... --smoke               # tiny inputs

The first run builds the anonsafe CLI and the trace replay from the
checkout's sources into .bench_build/, generates the seeded inputs with
the stand-in generator of src/datagen/ and makes the reference outputs;
later runs reuse all three. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones (BENCHMARK.json "end_to_end"); with --trace 1 they
are the per-layer ones. See perfbench/README.md for what each one means.
"""

import argparse
import hashlib
import json
import math
import os
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build"
CMAKE_BUILD = BUILD / "cmake"
CLI = CMAKE_BUILD / "anonsafe" / "tools" / "anonsafe"
TRACE = CMAKE_BUILD / "perfbench_trace"
DATA = BUILD / "data"
RESULTS = BUILD / "results"

# One client process, at most `nproc` threads and connections.
THREADS = min(4, os.cpu_count() or 1)
# Closed-loop serve connections. One core is left to the client process:
# with a connection per core, server and client contend for every core
# and the run-to-run spread of every serve metric doubled (0.20 vs 0.10
# of the median over ten seeds on a 4-core host).
SERVE_CLIENTS = max(1, THREADS - 1)
SETUP_REPEATS = 15
JOB_TIMEOUT_S = 150
# Serve: the server's dataset cache (pinned at its default) is smaller
# than the file pool, so round-robin sessions always load a cold file.
SERVE_CACHE_CAPACITY = 8
SERVE_POOL = 16
CALLS_PER_SESSION = 20
REPLAYED_SESSIONS = 4

BLOCK_METHODS = ("singleton", "complete_bipartite", "chain", "permanent",
                 "oestimate", "sampler")

END_TO_END = {
    "job_s": "s",
    "job_cpu_s": "s",
    "request_p50_ms": "ms",
    "request_p99_ms": "ms",
    "throughput_rps": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "data.read_fimi_ms": "ms",
    "data.read_fimi_mb_per_s": "MB/s",
    "data.frequency_compute_ms": "ms",
    "data.groups_build_ms": "ms",
    "core.assess_risk_ms": "ms",
    "core.similarity_ms": "ms",
    "core.similarity_samples": "count",
    "core.similarity_ms_per_sample": "ms",
    "core.render_ms": "ms",
    "defense.recommend_ms": "ms",
    "defense.apply_ms": "ms",
    "defense.candidates": "count",
    "estimator.plan_estimate_ms": "ms",
    **{f"estimator.blocks.{m}": "count" for m in BLOCK_METHODS},
    "estimator.exact_block_frac": "fraction",
    "serve.load_ms": "ms",
    "serve.queue_ms": "ms",
    "serve.exec_ms": "ms",
    "serve.wire_ms": "ms",
    "serve.response_kb": "KB",
    "serve.cache_hit_frac": "fraction",
    "exec.tasks": "count",
    "exec.steals": "count",
    "trace.coverage": "fraction",
    "trace.overhead_frac": "fraction",
}

# Stand-in scales: (normal, --smoke).
SCALES = {
    "ACCIDENTS": (1.0, 0.005),
    "CONNECT": (1.0, 0.02),
    "PUMSB": (0.25, 0.02),
    "RETAIL": (0.5, 0.02),
}


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def percentile(values, q):
    """Nearest-rank percentile; `q` in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def run_checked(args):
    proc = subprocess.run(args, capture_output=True, text=True,
                          timeout=JOB_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(map(str, args))} failed "
                         f"({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return proc.stdout


# ---------------------------------------------------------------- build --

def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no anonsafe sources under {ROOT / 'src'}; run "
                         "from the root of a checkout")
    BUILD.mkdir(exist_ok=True)
    if not (CMAKE_BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(CMAKE_BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, timeout=600)
    subprocess.run(["cmake", "--build", str(CMAKE_BUILD), "--target",
                    "perfbench", "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr, timeout=1500)


def provenance(workload, seed, datasets, simd_isa):
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    build_type = "unknown"
    for line in (CMAKE_BUILD / "CMakeCache.txt").read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            build_type = line.split("=", 1)[1]
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                env=env, capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    # A checkout exported without .git has no commit: a digest of the
    # sources identifies the program either way.
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return {
        "host": socket.gethostname(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "simd_isa": simd_isa,
        "build_type": build_type,
        "git_commit": commit,
        "src_sha256": h.hexdigest()[:16],
        "workload": workload,
        "seed": seed,
        "threads": THREADS,
        "serve_clients": SERVE_CLIENTS,
        "datasets": datasets,
    }


# ----------------------------------------------------------------- data --

def dataset(standin, seed, smoke):
    """Generated once per (stand-in, scale, seed) and reused; returns the
    path and its description (items, transactions, occurrences, bytes)."""
    scale = SCALES[standin][1 if smoke else 0]
    stem = f"{standin.lower()}-x{scale:g}-p2005-seed{seed}".replace(".", "_")
    path, meta = DATA / f"{stem}.dat", DATA / f"{stem}.json"
    if not meta.is_file():
        DATA.mkdir(parents=True, exist_ok=True)
        tmp = DATA / f"{stem}.tmp"
        run_checked([TRACE, "generate", standin, tmp, f"{scale:g}",
                     str(seed)])
        tmp.replace(path)
        described = json.loads(run_checked([TRACE, "describe", path]))
        info = described["files"][0]
        info.update(path=str(path.relative_to(ROOT)), standin=standin,
                    scale=scale, seed=seed)
        meta.write_text(json.dumps(info))
    return path, json.loads(meta.read_text())


def cached_output(name, make):
    """Output of `make(path)` stored under `name`, made once."""
    path = DATA / name
    if not path.is_file():
        tmp = path.with_suffix(".tmp")
        make(tmp)
        tmp.replace(path)
    return path


def simd_isa():
    return json.loads(run_checked([TRACE, "describe"]))["simd_isa"]


# ------------------------------------------------------- one-shot jobs --

def spawn_timed(args, stdout_path):
    """Runs one program process; wall seconds, CPU seconds, peak RSS MB."""
    with open(stdout_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdout=out, stderr=subprocess.DEVNULL)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


def cli_setup_s(run_dir):
    """Median time to start the program and have it answer a no-op."""
    walls = []
    for _ in range(SETUP_REPEATS):
        code, wall, _, _ = spawn_timed([CLI, "help"], run_dir / "help.out")
        if code != 0:
            raise BenchError("anonsafe help failed")
        walls.append(wall)
    return statistics.median(walls)


class OneShot:
    """A workload whose job is one CLI process, checked byte for byte
    against a reference made once at --threads=1."""

    def __init__(self, name, standin, command, trace_command):
        self.name = name
        self.standin = standin
        self.command = command
        self.trace_command = trace_command

    def run(self, seed, seconds, trace, smoke, run_dir):
        path, info = dataset(self.standin, seed, smoke)
        cli_digest = sha256_file(CLI)[:12]
        reference = cached_output(
            f"{self.name}-seed{seed}-x{info['scale']:g}-{cli_digest}.ref",
            lambda tmp: self._reference(path, tmp))
        expected = reference.read_bytes()

        setup = cli_setup_s(run_dir)
        jobs = []
        failed = 0
        out = run_dir / "job.out"
        deadline = time.perf_counter() + seconds
        while not jobs or time.perf_counter() < deadline:
            code, wall, cpu, rss = spawn_timed(
                [CLI, self.command, path, "--json", f"--threads={THREADS}"],
                out)
            ok = code == 0 and out.read_bytes() == expected
            failed += 0 if ok else 1
            jobs.append({"wall_s": wall, "cpu_s": cpu, "rss_mb": rss,
                         "ok": ok})
        walls = [j["wall_s"] for j in jobs]
        job_s = statistics.median(walls)
        record = {"jobs": jobs, "datasets": [info]}
        attempted = len(jobs)
        if not trace:
            metrics = {
                "job_s": job_s,
                "job_cpu_s": statistics.median(j["cpu_s"] for j in jobs),
                "request_p50_ms": job_s * 1e3,
                "request_p99_ms": percentile(walls, 99) * 1e3,
                "throughput_rps": len(jobs) / sum(walls),
                "peak_rss_mb": statistics.median(j["rss_mb"] for j in jobs),
                "setup_s": setup,
            }
            return metrics, attempted, failed, record

        replay = json.loads(run_checked(
            [TRACE, self.trace_command, path, str(THREADS), out]))
        record["replay"] = replay
        attempted += 1
        failed += 0 if replay["identical"] else 1
        attempted += replay.get("rescored", 0)
        failed += replay.get("rescore_mismatches", 0)
        metrics = layer_metrics([replay["spans"]], replay["blocks"],
                                info["bytes"])
        spans = replay["spans"]
        metrics.update({
            "core.similarity_samples":
                float(replay.get("similarity_samples", 0))
                if "core.similarity" in spans else 0.0,
            "defense.candidates": float(replay.get("candidates", 0)),
            "exec.tasks": float(replay["exec"]["tasks"]),
            "exec.steals": float(replay["exec"]["steals"]),
        })
        if metrics["core.similarity_samples"]:
            metrics["core.similarity_ms_per_sample"] = (
                metrics["core.similarity_ms"] /
                metrics["core.similarity_samples"])
        top = ("data.read_fimi", "data.frequency_compute", "data.groups_build",
               "core.assess_risk", "core.similarity", "core.render",
               "defense.recommend")
        covered = sum(spans[s]["ms"] for s in top if s in spans)
        metrics["trace.coverage"] = covered / (job_s * 1e3)
        metrics["trace.overhead_frac"] = replay["wall_ms"] / (job_s * 1e3) - 1
        return metrics, attempted, failed, record

    def _reference(self, path, tmp):
        code, _, _, _ = spawn_timed(
            [CLI, self.command, path, "--json", "--threads=1"], tmp)
        if code != 0:
            raise BenchError(f"reference {self.command} failed ({code})")


def layer_metrics(sessions, blocks, bytes_per_job):
    """Per-layer metrics from span sums, averaged per job."""
    def per_job(span):
        return sum(s.get(span, {}).get("ms", 0.0) for s in sessions) / len(
            sessions)

    metrics = {name: 0.0 for name in PER_LAYER}
    for name in ("data.read_fimi", "data.frequency_compute",
                 "data.groups_build", "core.assess_risk", "core.similarity",
                 "core.render", "defense.recommend", "defense.apply",
                 "estimator.plan_estimate"):
        metrics[name + "_ms"] = per_job(name)
    if metrics["data.read_fimi_ms"] > 0:
        metrics["data.read_fimi_mb_per_s"] = (
            bytes_per_job / 1e6 / (metrics["data.read_fimi_ms"] / 1e3))
    total_blocks = sum(blocks["methods"].values())
    for method in BLOCK_METHODS:
        metrics[f"estimator.blocks.{method}"] = (
            blocks["methods"].get(method, 0) / len(sessions))
    if total_blocks:
        metrics["estimator.exact_block_frac"] = blocks["exact"] / total_blocks
    return metrics


# --------------------------------------------------------------- serve --

def serve_calls(variant):
    """The assess_risk params of one session: fast oe/auto calls cycling
    adversary, tolerance and seed, plus one auto+exact_support and one
    sampler call (the slow ones on PUMSB). `variant` picks the sampler's
    adversary, so both pairings occur across the pool."""
    fast = [("oe", "interval"), ("oe", "exact_support:k=32"),
            ("oe", "probabilistic"), ("auto", "interval")]
    slow = [("auto", "exact_support:k=32"),
            ("sampler", ("interval", "exact_support:k=32")[variant])]
    calls = []
    for i in range(CALLS_PER_SESSION):
        if i == CALLS_PER_SESSION // 2 - 1:
            estimator, adversary = slow[0]
        elif i == CALLS_PER_SESSION - 1:
            estimator, adversary = slow[1]
        else:
            estimator, adversary = fast[i % len(fast)]
        calls.append({
            "estimator": estimator,
            "adversary": adversary,
            "tolerance": (0.1, 0.2)[i * 2 // CALLS_PER_SESSION],
            "seed": 1 + i % 3,
            "include_similarity_curve": False,
        })
    return calls


class Connection:
    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=120)
        self.reader = self.sock.makefile("rb")

    def call(self, line):
        self.sock.sendall(line.encode() + b"\n")
        reply = self.reader.readline()
        if not reply:
            raise BenchError("server closed the connection")
        return reply.decode().rstrip("\n")

    def close(self):
        self.reader.close()
        self.sock.close()


def request(rid, verb, params=None):
    doc = {"schema_version": 2, "verb": verb, "id": rid}
    if params is not None:
        doc["params"] = params
    return json.dumps(doc, separators=(",", ":"))


class Server:
    """An `anonsafe serve` process on an ephemeral loopback port."""

    def __init__(self, log_path):
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            [CLI, "serve", "--port=0", f"--workers={THREADS}",
             f"--cache-capacity={SERVE_CACHE_CAPACITY}",
             f"--log-file={log_path}"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        try:
            line = self.proc.stdout.readline().decode()
            if "listening on" not in line:
                raise BenchError(f"serve did not start: {line!r}")
            self.port = int(line.rsplit(":", 1)[1])
            self.conn = Connection(self.port)
            info = json.loads(self.conn.call(request(0, "server_info")))
            if not info.get("ok"):
                raise BenchError("server_info failed")
            self.ready_s = time.perf_counter() - self.start
            self.simd_isa = info["result"].get("simd_isa")
        except BaseException:
            self.kill()
            raise

    def cpu_s(self):
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(
            ")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self):
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return 0.0

    def metrics(self):
        reply = json.loads(self.conn.call(request(1, "metrics")))
        counters = {}
        for c in reply["result"]["metrics"]["counters"]:
            counters[c["name"]] = c["value"]
        return counters

    def shutdown(self):
        try:
            self.conn.call(request(2, "shutdown"))
            self.conn.close()
            self.proc.wait(timeout=60)
        finally:
            self.kill()

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


class ServeSession:
    name = "serve_session"

    def run(self, seed, seconds, trace, smoke, run_dir):
        files, infos = [], []
        for k in range(SERVE_POOL):
            standin = ("PUMSB", "RETAIL")[k % 2]
            path, info = dataset(standin, 1000 * seed + k, smoke)
            files.append(str(path))
            infos.append(info)
        calls = [serve_calls((k // 2) % 2) for k in range(SERVE_POOL)]
        plan = json.dumps({"files": files, "calls": calls})
        plan_path = run_dir / "plan.json"
        plan_path.write_text(plan)
        digest = hashlib.sha256(plan.encode() +
                                sha256_file(TRACE).encode()).hexdigest()[:16]
        expected_path = cached_output(
            f"serve-seed{seed}-{digest}.jsonl",
            lambda tmp: run_checked([TRACE, "serve-expect", plan_path, tmp]))
        expected = {}
        for line in expected_path.read_text().splitlines():
            v = json.loads(line)
            expected[(v["file"], v["call"])] = v["report"]

        for old_log in run_dir.glob("*.log"):
            old_log.unlink()  # the server appends to its log file
        setups = []
        for k in range(SETUP_REPEATS - 1):
            server = Server(run_dir / f"setup{k}.log")
            setups.append(server.ready_s)
            server.shutdown()
        server = Server(run_dir / "serve.log")
        try:
            setups.append(server.ready_s)
            result = self._closed_loop(server, files, calls, infos, expected,
                                       seconds)
            counters = server.metrics()
            result["peak_rss_mb"] = server.peak_rss_mb()
        finally:
            server.shutdown()

        sessions = result["sessions"]
        session_walls = [s["wall_s"] for s in sessions]
        assess = [r for r in result["requests"] if r["verb"] == "assess_risk"]
        loads = [r for r in result["requests"] if r["verb"] == "load_dataset"]
        attempted = len(result["requests"])
        failed = sum(0 if r["ok"] else 1 for r in result["requests"])
        record = {"datasets": infos, "sessions": len(sessions),
                  "requests": attempted, "assess_samples": len(assess),
                  "load_cache_hits": sum(1 for r in loads if r["cached"]),
                  "counters": counters}
        if not trace:
            latencies = [r["ms"] for r in assess]
            metrics = {
                # Sessions are bimodal (PUMSB ones run the slow estimator
                # calls), so their median jumps between the modes; the
                # mean over a fixed 50/50 mix does not.
                "job_s": statistics.mean(session_walls),
                "job_cpu_s": result["cpu_s"] / len(sessions),
                "request_p50_ms": statistics.median(latencies),
                "request_p99_ms": percentile(latencies, 99),
                "throughput_rps": attempted / result["window_s"],
                "peak_rss_mb": result["peak_rss_mb"],
                "setup_s": statistics.median(setups),
            }
            record["assess_beyond_p99"] = sum(
                1 for x in latencies if x > metrics["request_p99_ms"])
            return metrics, attempted, failed, record

        # Server-side split of the same requests, from the access log.
        queue_ms = exec_ms = 0.0
        for line in (run_dir / "serve.log").read_text().splitlines():
            event = json.loads(line)
            if (event.get("event") == "serve.request" and
                    event.get("verb") in ("load_dataset", "assess_risk")):
                queue_ms += event["queue_ms"]
                exec_ms += event["exec_ms"]
        round_trip_ms = sum(r["ms"] for r in loads + assess)
        n = len(sessions)
        replay = json.loads(run_checked(
            [TRACE, "serve", plan_path, expected_path,
             str(REPLAYED_SESSIONS)]))
        record["replay"] = replay
        attempted += replay["checked"]
        failed += replay["mismatches"]
        replayed = replay["sessions"]
        metrics = layer_metrics([s["spans"] for s in replayed],
                                replay["blocks"],
                                sum(i["bytes"] for i in infos[:len(replayed)])
                                / len(replayed))
        hits = counters.get("anonsafe_serve_dataset_cache_hits_total", 0)
        misses = counters.get("anonsafe_serve_dataset_cache_misses_total", 0)
        metrics.update({
            "serve.load_ms": statistics.median([r["ms"] for r in loads]),
            "serve.queue_ms": queue_ms / n,
            "serve.exec_ms": exec_ms / n,
            "serve.wire_ms": (round_trip_ms - queue_ms - exec_ms) / n,
            "serve.response_kb": statistics.mean(r["bytes"] for r in assess)
                                 / 1024.0,
            "serve.cache_hit_frac": hits / (hits + misses) if hits + misses
                                    else 0.0,
            "exec.tasks": counters.get("anonsafe_exec_tasks_total", 0) / n,
            "exec.steals": counters.get("anonsafe_exec_steals_total", 0) / n,
        })
        session_ms = statistics.mean(session_walls) * 1e3
        layers = ("data.read_fimi", "data.frequency_compute",
                  "data.groups_build", "core.assess_risk", "core.similarity",
                  "core.render")
        covered = sum(metrics[s + "_ms"] for s in layers)
        metrics["trace.coverage"] = (covered + metrics["serve.queue_ms"] +
                                     metrics["serve.wire_ms"]) / session_ms
        metrics["trace.overhead_frac"] = statistics.mean(
            s["wall_ms"] for s in replayed) / session_ms - 1
        return metrics, attempted, failed, record

    def _closed_loop(self, server, files, calls, infos, expected, seconds):
        lock = threading.Lock()
        state = {"next": 0, "rid": 100}
        requests, sessions, errors = [], [], []
        deadline = time.perf_counter() + seconds

        def next_ids():
            with lock:
                state["next"] += 1
                state["rid"] += CALLS_PER_SESSION + 1
                return state["next"] - 1, state["rid"]

        def client():
            conn = Connection(server.port)
            try:
                while time.perf_counter() < deadline:
                    s, rid = next_ids()
                    f = s % len(files)
                    mine = []
                    start = time.perf_counter()
                    t0 = time.perf_counter()
                    reply = conn.call(request(rid, "load_dataset",
                                              {"path": files[f]}))
                    ms = (time.perf_counter() - t0) * 1e3
                    doc = json.loads(reply)
                    result = doc.get("result", {})
                    ok = (doc.get("ok") is True and
                          result.get("num_items") == infos[f]["items"] and
                          result.get("num_transactions") ==
                          infos[f]["transactions"])
                    mine.append({"verb": "load_dataset", "ms": ms, "ok": ok,
                                 "bytes": len(reply),
                                 "cached": result.get("cached") is True})
                    key = result.get("dataset", "")
                    for c, params in enumerate(calls[f]):
                        rid += 1
                        line = request(rid, "assess_risk",
                                       dict(params, dataset=key))
                        t0 = time.perf_counter()
                        reply = conn.call(line)
                        ms = (time.perf_counter() - t0) * 1e3
                        want = ('{"schema_version":2,"id":%d,"ok":true,'
                                '"result":{"dataset":"%s","report":%s}}' %
                                (rid, key, expected[(f, c)]))
                        mine.append({"verb": "assess_risk", "ms": ms,
                                     "ok": reply == want,
                                     "bytes": len(reply)})
                    end = time.perf_counter()
                    with lock:
                        requests.extend(mine)
                        sessions.append({"file": f, "wall_s": end - start,
                                         "end": end})
            except BaseException as e:  # recorded, re-raised after join
                errors.append(e)
            finally:
                conn.close()

        cpu_before = server.cpu_s()
        start = time.perf_counter()
        workers = [threading.Thread(target=client)
                   for _ in range(SERVE_CLIENTS)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        cpu_after = server.cpu_s()
        if errors:
            raise BenchError(f"serve client failed: {errors[0]!r}")
        if not sessions:
            raise BenchError("no serve session completed")
        window = max(s["end"] for s in sessions) - start
        return {"requests": requests, "sessions": sessions,
                "window_s": window, "cpu_s": cpu_after - cpu_before}


WORKLOADS = {
    "report_dense": OneShot("report_dense", "ACCIDENTS", "report", "report"),
    "serve_session": ServeSession(),
    "defense_sweep": OneShot("defense_sweep", "CONNECT", "recommend-defense",
                             "defense"),
}


def run_workload(name, seed, seconds, trace, smoke):
    run_dir = BUILD / "runs" / f"{name}-seed{seed}-trace{trace}"
    run_dir.mkdir(parents=True, exist_ok=True)
    metrics, attempted, failed, record = WORKLOADS[name].run(
        seed, seconds, trace, smoke, run_dir)
    wanted = PER_LAYER if trace else END_TO_END
    missing = set(wanted) - set(metrics)
    if missing:
        raise BenchError(f"metrics not measured: {sorted(missing)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": wanted[k]}
                    for k in wanted},
    }
    stamp = provenance(name, seed, record.pop("datasets"), simd_isa())
    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / f"{name}-seed{seed}-trace{trace}-{int(time.time())}.json"
    out.write_text(json.dumps({"provenance": stamp, "result": result,
                               "detail": record}, indent=1))
    return stamp, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's self-check")
    args = parser.parse_args()
    try:
        build()
        names = (sorted(WORKLOADS) if args.workload == "all"
                 else [args.workload])
        for name in names:
            stamp, result = run_workload(name, args.seed, args.seconds,
                                         args.trace, args.smoke)
            if args.workload == "all":
                for metric, v in result["metrics"].items():
                    print(f"{name:14s} {metric:34s} {v['value']:14.6g} "
                          f"{v['unit']}")
                print(f"{name:14s} {'failed_frac':34s} "
                      f"{result['failed'] / result['attempted']:14.6g}")
            print("# provenance " + json.dumps(stamp, sort_keys=True))
        print(json.dumps(result))
    except (BenchError, subprocess.SubprocessError, OSError) as e:
        log(f"error: {e}")
        sys.exit(1)


if __name__ == "__main__":
    main()
