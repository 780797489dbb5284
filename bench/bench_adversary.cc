// Adversary-registry harness: AssessRisk cost per attacker model.
//
// Runs the Figure 8 recipe on the exact BM_AssessRiskBisection/8192
// fixture (the synthetic ~n/4-group table at n = 8192 with tolerance
// 0.001, 8 bisection steps, 3 alpha runs, one thread) once per
// registered adversary, takes the median of kReps wall-clock
// repetitions, and checks each adversary's result is bit-identical
// between 1 and 8 worker threads. Prints one JSON summary on stdout:
//
//   {"fixture": {"items": 8192, ...},
//    "adversaries": {
//      "interval":       {"spec": "interval", "median_ms": ...,
//                         "vs_interval": 1.0, "decision": "...",
//                         "interval_oe": ...},
//      "probabilistic":  {...}, "exact_support": {...}},
//    "bit_identical": true, "reps": 5}
//
// scripts/check_perf.py hard-gates this record on bit_identical, gates
// the interval entry against the BM_AssessRiskBisection/8192 baseline
// in bench/perf_baseline.json, and emits it, stamped, as
// BENCH_adversary.json —
// the default adversary now routes through the registry, and that
// indirection must not tax the historical hot path. The non-default
// entries are recorded informationally (vs_interval = overhead ratio).

#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "adversary/adversary.h"
#include "core/recipe.h"
#include "data/frequency.h"
#include "util/json.h"
#include "util/rng.h"

namespace anonsafe {
namespace bench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kItems = 8192;
constexpr int kReps = 5;

/// The bench_perf_microbench fixture: n items, ~n/4 groups, m = 16n.
FrequencyTable MakeTable(size_t n) {
  Rng rng(n * 2654435761u + 1);
  const size_t m = 16 * n;
  std::vector<SupportCount> supports(n);
  const size_t groups = std::max<size_t>(2, n / 4);
  for (size_t i = 0; i < n; ++i) {
    supports[i] = 1 + (rng.UniformUint64(groups) * m) / (groups + 1);
  }
  return *FrequencyTable::FromSupports(std::move(supports), m);
}

RecipeOptions MakeOptions(const adversary::AdversarySpec& spec,
                          size_t threads) {
  RecipeOptions options;
  options.tolerance = 0.001;
  options.binary_search_iterations = 8;
  options.exec.runs = 3;
  options.exec.threads = threads;
  options.adversary = spec.name;
  options.adversary_params = spec.params;
  return options;
}

bool SameResult(const RecipeResult& a, const RecipeResult& b) {
  return a.decision == b.decision && a.interval_oe == b.interval_oe &&
         a.alpha_max == b.alpha_max && a.delta_med == b.delta_med;
}

int Run() {
  const FrequencyTable table = MakeTable(kItems);

  // One spec per registered adversary, in registry order. Non-default
  // params exercise a real (non-degenerate) configuration of each.
  const std::vector<std::string> specs = {
      "interval",
      "probabilistic:span=2,sigma=1",
      "exact_support:k=32",
  };

  json::Value adversaries = json::Value::Object();
  double interval_ms = 0.0;
  bool bit_identical = true;

  for (const auto& text : specs) {
    auto spec = adversary::ParseAdversarySpec(text);
    if (!spec.ok()) {
      std::cerr << "bench_adversary: bad spec '" << text
                << "': " << spec.status() << "\n";
      return 1;
    }

    // Timed at one thread, the same shape the microbench gates.
    const RecipeOptions options = MakeOptions(*spec, /*threads=*/1);
    std::vector<double> wall_ms;
    RecipeResult last;
    for (int rep = 0; rep < kReps; ++rep) {
      const auto t0 = Clock::now();
      auto result = AssessRisk(table, options);
      const auto t1 = Clock::now();
      if (!result.ok()) {
        std::cerr << "bench_adversary: AssessRisk(" << text
                  << "): " << result.status() << "\n";
        return 1;
      }
      wall_ms.push_back(
          std::chrono::duration<double, std::milli>(t1 - t0).count());
      last = *result;
    }
    std::sort(wall_ms.begin(), wall_ms.end());
    const double median_ms = wall_ms[wall_ms.size() / 2];

    // Thread bit-identity: the registry must not break the exec
    // engine's determinism contract for any adversary.
    auto t8 = AssessRisk(table, MakeOptions(*spec, /*threads=*/8));
    if (!t8.ok()) {
      std::cerr << "bench_adversary: AssessRisk(" << text
                << ", threads=8): " << t8.status() << "\n";
      return 1;
    }
    const bool same = SameResult(last, *t8);
    bit_identical = bit_identical && same;

    if (spec->name == "interval") interval_ms = median_ms;

    json::Value entry = json::Value::Object();
    entry.Set("spec", json::Value(text));
    entry.Set("median_ms", json::Value(median_ms));
    entry.Set("vs_interval",
              json::Value(interval_ms > 0.0 ? median_ms / interval_ms : 0.0));
    entry.Set("decision", json::Value(std::string(ToString(last.decision))));
    entry.Set("interval_oe", json::Value(last.interval_oe));
    entry.Set("thread_identical", json::Value(same));
    adversaries.Set(spec->name, std::move(entry));
  }

  json::Value fixture = json::Value::Object();
  fixture.Set("items", json::Value(uint64_t{kItems}));
  fixture.Set("transactions", json::Value(uint64_t{16 * kItems}));
  fixture.Set("tolerance", json::Value(0.001));
  fixture.Set("binary_search_iterations", json::Value(uint64_t{8}));
  fixture.Set("runs", json::Value(uint64_t{3}));

  json::Value out = json::Value::Object();
  out.Set("fixture", std::move(fixture));
  out.Set("adversaries", std::move(adversaries));
  out.Set("reps", json::Value(uint64_t{kReps}));
  out.Set("bit_identical", json::Value(bit_identical));
  std::cout << out.Dump() << "\n";

  return bit_identical ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace anonsafe

int main() { return anonsafe::bench::Run(); }
