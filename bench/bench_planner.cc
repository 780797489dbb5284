// Planner-vs-monolithic microbenchmarks (docs/ESTIMATORS.md).
//
// The fixture is a frequency profile made of `blocks` independent
// 12-item clusters in disjoint frequency bands. Each cluster is messy
// on purpose — connected, incomplete, not a chain — so the planner has
// to pay a real masked-Ryser permanent per block instead of a closed
// form. The monolithic direct method sees one (12 * blocks)-item graph
// and pays a whole-graph permanent:
//
//   * blocks = 1 (n = 12) and blocks = 2 (n = 24): both sides feasible,
//     BM_DirectMonolithic vs BM_PlannerVsMonolithic measures the decomposition
//     speedup directly;
//   * blocks = 4 (n = 48 > kMaxPermanentN): the monolithic method is
//     structurally infeasible, yet the planner still returns an exact,
//     provenance-tagged answer because every block is within the Ryser
//     cutoff. BM_PlannerBeyondMonolithic is that acceptance instance.
//
// scripts/check_perf.py gates the JSON these print on the planner's
// exactness and emits the measured speedups, stamped, as
// BENCH_planner.json.

#include <benchmark/benchmark.h>

#include <cstddef>
#include <vector>

#include "belief/belief_function.h"
#include "data/frequency.h"
#include "estimator/planner.h"
#include "graph/bipartite_graph.h"
#include "graph/permanent.h"

namespace anonsafe {
namespace {

constexpr size_t kClusterItems = 12;

struct Fixture {
  FrequencyGroups groups;
  BeliefFunction belief;
};

/// `blocks` independent clusters of 12 items each. Cluster c occupies
/// the frequency band [(1000c + 100) / m, (1000c + 300) / m] with three
/// frequency sub-groups of four items; every item's belief interval
/// spans its own cluster's band (endpoints pinned at the extremes for
/// the first/last item), so clusters never connect to each other and
/// each one is a single connected, incomplete, non-chain block.
Fixture MakeClusteredFixture(size_t blocks) {
  const size_t m = 10000;
  std::vector<SupportCount> supports;
  supports.reserve(blocks * kClusterItems);
  for (size_t c = 0; c < blocks; ++c) {
    const SupportCount base = static_cast<SupportCount>(1000 * c);
    for (SupportCount s : {base + 100, base + 200, base + 300}) {
      for (int i = 0; i < 4; ++i) supports.push_back(s);
    }
  }
  auto table = FrequencyTable::FromSupports(std::move(supports), m);
  FrequencyGroups groups = FrequencyGroups::Build(*table);

  std::vector<BeliefInterval> intervals(blocks * kClusterItems);
  for (size_t c = 0; c < blocks; ++c) {
    const double lo = static_cast<double>(1000 * c + 100) / m;
    const double hi = static_cast<double>(1000 * c + 300) / m;
    for (size_t i = 0; i < kClusterItems; ++i) {
      intervals[c * kClusterItems + i] = {lo, hi};
    }
    intervals[c * kClusterItems] = {lo, lo};
    intervals[c * kClusterItems + kClusterItems - 1] = {hi, hi};
  }
  return Fixture{std::move(groups),
                 *BeliefFunction::Create(std::move(intervals))};
}

void BM_DirectMonolithic(benchmark::State& state) {
  const size_t blocks = static_cast<size_t>(state.range(0));
  Fixture fx = MakeClusteredFixture(blocks);
  double cracks = 0.0;
  for (auto _ : state) {
    auto graph = BipartiteGraph::Build(fx.groups, fx.belief);
    if (!graph.ok()) {
      state.SkipWithError(graph.status().ToString().c_str());
      break;
    }
    auto direct = ExactExpectedCracksByPermanent(*graph);
    if (!direct.ok()) {
      state.SkipWithError(direct.status().ToString().c_str());
      break;
    }
    cracks = *direct;
    benchmark::DoNotOptimize(*direct);
  }
  state.counters["items"] =
      static_cast<double>(blocks * kClusterItems);
  state.counters["expected_cracks"] = cracks;
}
// n = 24 pays a whole-graph 2^24-subset Ryser per item probe: seconds
// per iteration, so pin one iteration and let the script use medians.
BENCHMARK(BM_DirectMonolithic)->Arg(1)->Arg(2)->Iterations(1);

void BM_PlannerVsMonolithic(benchmark::State& state) {
  const size_t blocks = static_cast<size_t>(state.range(0));
  Fixture fx = MakeClusteredFixture(blocks);
  double cracks = 0.0;
  bool exact = false;
  for (auto _ : state) {
    auto planned = PlanAndEstimate(fx.groups, fx.belief);
    if (!planned.ok()) {
      state.SkipWithError(planned.status().ToString().c_str());
      break;
    }
    cracks = planned->expected_cracks;
    exact = planned->exact;
    benchmark::DoNotOptimize(planned->expected_cracks);
  }
  state.counters["items"] =
      static_cast<double>(blocks * kClusterItems);
  state.counters["expected_cracks"] = cracks;
  state.counters["exact"] = exact ? 1.0 : 0.0;
}
BENCHMARK(BM_PlannerVsMonolithic)->Arg(1)->Arg(2);

void BM_PlannerBeyondMonolithic(benchmark::State& state) {
  // n = 48 > kMaxPermanentN: the monolithic permanent cannot run at
  // all, but every block is 12 items, so the planner's answer is still
  // exact. The counters prove both halves of the claim.
  const size_t blocks = 4;
  static_assert(blocks * kClusterItems > kMaxPermanentN,
                "instance must be beyond the whole-graph permanent");
  Fixture fx = MakeClusteredFixture(blocks);
  double cracks = 0.0;
  bool exact = false;
  size_t largest = 0;
  for (auto _ : state) {
    auto planned = PlanAndEstimate(fx.groups, fx.belief);
    if (!planned.ok()) {
      state.SkipWithError(planned.status().ToString().c_str());
      break;
    }
    cracks = planned->expected_cracks;
    exact = planned->exact;
    largest = 0;
    for (const BlockProvenance& b : planned->blocks) {
      largest = b.size > largest ? b.size : largest;
    }
    benchmark::DoNotOptimize(planned->expected_cracks);
  }
  state.counters["items"] = static_cast<double>(blocks * kClusterItems);
  state.counters["expected_cracks"] = cracks;
  state.counters["exact"] = exact ? 1.0 : 0.0;
  state.counters["largest_block"] = static_cast<double>(largest);
}
BENCHMARK(BM_PlannerBeyondMonolithic);

}  // namespace
}  // namespace anonsafe

BENCHMARK_MAIN();
