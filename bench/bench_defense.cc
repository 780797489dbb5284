// Defense-sweep harness: RecommendDefense on the CONNECT stand-in.
//
// Runs the full registered-scheme sweep once sequentially and once at
// 8 worker threads (pinned, like bench_adversary, so the identity check
// compares 1 thread against N > 1 on any host), checks the two frontier
// documents are byte-identical (the optimizer's determinism contract),
// and prints one JSON summary on stdout:
//
//   {"dataset": "...", "num_items": n, "num_transactions": m,
//    "candidates": c, "feasible": f, "frontier_size": k,
//    "t1_ms": ..., "tN_ms": ..., "threads": N,
//    "speedup": t1/tN, "bit_identical": true}
//
// scripts/check_perf.py hard-gates this record on bit_identical and a
// non-empty frontier, records the speedup informationally, and emits
// it, stamped, as BENCH_defense.json. The sweep is
// coarse-grained (one candidate = plan + apply + full risk estimate),
// so the parallel win is expected but machine-dependent — the byte
// identity is the invariant worth failing a build over.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench_common.h"
#include "defense/optimizer.h"
#include "exec/exec.h"
#include "util/json.h"

namespace anonsafe {
namespace bench {
namespace {

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

int Run() {
  double scale = GetScale();
  // The full-scale CONNECT stand-in puts ~24 candidate databases through
  // apply + estimate; 0.2 keeps the default run under a few seconds
  // while exercising the identical code paths.
  if (std::getenv("ANONSAFE_SCALE") == nullptr) scale = 0.2;

  constexpr size_t threads = 8;

  auto ds = MakeDataset(Benchmark::kConnect, scale, /*with_database=*/true,
                        /*seed=*/2027);
  if (!ds.ok()) {
    std::cerr << "bench_defense: " << ds.status() << "\n";
    return 1;
  }

  defense::OptimizerOptions options;

  auto sweep = [&](size_t nthreads,
                   double* wall_ms) -> Result<defense::DefenseFrontier> {
    exec::ExecOptions eo;
    eo.seed = 7;
    eo.threads = nthreads;
    exec::ExecContext ctx(eo);
    const auto t0 = Clock::now();
    auto frontier = defense::RecommendDefense(ds->database, options, &ctx);
    *wall_ms = MillisSince(t0);
    return frontier;
  };

  double t1_ms = 0.0, tn_ms = 0.0;
  auto seq = sweep(1, &t1_ms);
  if (!seq.ok()) {
    std::cerr << "bench_defense: sequential sweep: " << seq.status() << "\n";
    return 1;
  }
  auto par = sweep(threads, &tn_ms);
  if (!par.ok()) {
    std::cerr << "bench_defense: parallel sweep: " << par.status() << "\n";
    return 1;
  }

  const std::string doc1 = seq->ToJson().Dump();
  const std::string docn = par->ToJson().Dump();
  const bool bit_identical = doc1 == docn;

  size_t feasible = 0;
  for (const auto& c : seq->candidates) {
    if (c.feasible) ++feasible;
  }

  json::Value out = json::Value::Object();
  out.Set("dataset", json::Value(std::string("connect-standin")));
  out.Set("scale", json::Value(scale));
  out.Set("num_items", json::Value(uint64_t{seq->num_items}));
  out.Set("num_transactions", json::Value(uint64_t{seq->num_transactions}));
  out.Set("candidates", json::Value(uint64_t{seq->candidates.size()}));
  out.Set("feasible", json::Value(uint64_t{feasible}));
  out.Set("frontier_size", json::Value(uint64_t{seq->frontier.size()}));
  out.Set("t1_ms", json::Value(t1_ms));
  out.Set("tN_ms", json::Value(tn_ms));
  out.Set("threads", json::Value(uint64_t{threads}));
  out.Set("speedup", json::Value(tn_ms > 0.0 ? t1_ms / tn_ms : 0.0));
  out.Set("bit_identical", json::Value(bit_identical));
  std::cout << out.Dump() << "\n";

  return bit_identical ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace anonsafe

int main() { return anonsafe::bench::Run(); }
