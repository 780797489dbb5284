// E9 (extension) — estimator ablation: how close do the library's
// estimators get to the exact expected crack count, and what does each
// refinement buy?
//
//   naive OE        Fig. 5 sum alone
//   propagated OE   + degree-1 propagation (Fig. 7, the paper's default)
//   refined OE      + full matching-cover pruning (library extension:
//                   Dulmage-Mendelsohn edge pruning, subsumes Fig. 7 and
//                   the Fig. 6(b) tight-set artifact)
//   simulated       MCMC over consistent matchings (Section 7.1)
//   exact           permanent-based direct method (Section 4.1), the
//                   ground truth — hence instances are kept small
//
// Three instance families: random compliant interval beliefs, realized
// chains (where Lemma 6 provides a second exact oracle), and the paper's
// two Figure 6 pathologies.

#include <cmath>
#include <iostream>
#include <vector>

#include "belief/builders.h"
#include "belief/chain.h"
#include "bench_common.h"
#include "core/graph_oestimate.h"
#include "core/oestimate.h"
#include "graph/bipartite_graph.h"
#include "graph/permanent.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table_printer.h"

using namespace anonsafe;
using namespace anonsafe::bench;

namespace {

struct ErrorAccumulator {
  std::vector<double> naive, propagated, refined, simulated;

  void Report(const std::string& family, TablePrinter* table) const {
    auto row = [&](const char* name, const std::vector<double>& errs) {
      Summary s = Summarize(errs);
      table->AddRow({family, name, TablePrinter::Fmt(s.mean * 100, 2),
                     TablePrinter::Fmt(s.median * 100, 2),
                     TablePrinter::Fmt(s.max * 100, 2)});
    };
    row("naive OE", naive);
    row("propagated OE", propagated);
    row("refined OE", refined);
    row("simulated", simulated);
  }
};

}  // namespace

int main() {
  PrintBanner("E9 / estimator ablation",
              "naive vs propagated vs refined vs simulated, against exact");

  TablePrinter table({"family", "estimator", "mean |err| %",
                      "median |err| %", "max |err| %"});
  Rng rng(909);

  // ---- Family 1: random compliant interval beliefs ---------------------
  {
    ErrorAccumulator acc;
    int done = 0;
    while (done < 60) {
      const size_t n = 4 + rng.UniformUint64(8);
      std::vector<SupportCount> supports(n);
      for (size_t i = 0; i < n; ++i) supports[i] = 1 + rng.UniformUint64(12);
      auto tbl = FrequencyTable::FromSupports(supports, 24);
      if (!tbl.ok()) continue;
      FrequencyGroups groups = FrequencyGroups::Build(*tbl);
      auto beta =
          MakeCompliantIntervalBelief(*tbl, 0.3 * rng.UniformDouble());
      if (!beta.ok()) continue;
      auto graph = BipartiteGraph::Build(groups, *beta);
      if (!graph.ok()) continue;
      auto exact = ExactExpectedCracksByPermanent(*graph);
      if (!exact.ok() || *exact <= 0.0) continue;

      OEstimateOptions raw;
      raw.propagate = false;
      auto naive = ComputeOEstimate(groups, *beta, raw);
      auto propagated = ComputeOEstimate(groups, *beta);
      auto refined = ComputeRefinedOEstimate(groups, *beta);
      SamplerOptions sampler;
      sampler.num_samples = 1000;
      sampler.thinning_sweeps = 4;
      auto sim =
          SimulateCracks(groups, *beta, sampler, /*runs=*/2, rng.Next());
      if (!naive.ok() || !propagated.ok() || !refined.ok() || !sim.ok()) {
        continue;
      }
      auto err = [&](double v) { return std::abs(v - *exact) / *exact; };
      acc.naive.push_back(err(naive->expected_cracks));
      acc.propagated.push_back(err(propagated->expected_cracks));
      acc.refined.push_back(err(refined->expected_cracks));
      acc.simulated.push_back(err(sim->mean));
      ++done;
    }
    acc.Report("random interval", &table);
    table.AddSeparator();
  }

  // ---- Family 2: realized chains (Lemma 6 cross-oracle) ---------------
  {
    ErrorAccumulator acc;
    int done = 0;
    while (done < 60) {
      const size_t k = 2 + rng.UniformUint64(2);
      ChainSpec spec;
      spec.n.resize(k);
      spec.e.resize(k);
      spec.s.resize(k - 1);
      size_t prev_r = 0, total = 0;
      for (size_t i = 0; i < k; ++i) {
        size_t e = rng.UniformUint64(3);
        size_t l = (i + 1 < k) ? rng.UniformUint64(3) : 0;
        size_t r = (i + 1 < k) ? rng.UniformUint64(3) : 0;
        if (i + 1 < k && l + r == 0) l = 1;
        spec.e[i] = e;
        spec.n[i] = e + prev_r + l;
        if (spec.n[i] == 0) {
          spec.e[i] += 1;
          spec.n[i] += 1;
        }
        if (i + 1 < k) spec.s[i] = l + r;
        prev_r = r;
        total += spec.n[i];
      }
      if (total > 12 || !ValidateChain(spec).ok()) continue;
      auto realized = RealizeChain(spec, 60);
      if (!realized.ok()) continue;
      auto tbl = FrequencyTable::FromSupports(realized->item_supports,
                                              realized->num_transactions);
      if (!tbl.ok()) continue;
      FrequencyGroups groups = FrequencyGroups::Build(*tbl);
      auto exact = ChainExactExpectedCracks(spec);
      if (!exact.ok() || *exact <= 0.0) continue;

      OEstimateOptions raw;
      raw.propagate = false;
      auto naive = ComputeOEstimate(groups, realized->belief, raw);
      auto propagated = ComputeOEstimate(groups, realized->belief);
      auto refined = ComputeRefinedOEstimate(groups, realized->belief);
      SamplerOptions sampler;
      sampler.num_samples = 1000;
      sampler.thinning_sweeps = 4;
      auto sim = SimulateCracks(groups, realized->belief, sampler,
                                /*runs=*/2, rng.Next());
      if (!naive.ok() || !propagated.ok() || !refined.ok() || !sim.ok()) {
        continue;
      }
      auto err = [&](double v) { return std::abs(v - *exact) / *exact; };
      acc.naive.push_back(err(naive->expected_cracks));
      acc.propagated.push_back(err(propagated->expected_cracks));
      acc.refined.push_back(err(refined->expected_cracks));
      acc.simulated.push_back(err(sim->mean));
      ++done;
    }
    acc.Report("chains", &table);
    table.AddSeparator();
  }

  // ---- Family 3: the Figure 6 pathologies ------------------------------
  {
    auto report_instance = [&](const char* name,
                               const BipartiteGraph& graph) {
      OEstimateOptions raw;
      raw.propagate = false;
      auto naive = ComputeOEstimateOnGraph(graph, raw);
      auto propagated = ComputeOEstimateOnGraph(graph);
      auto refined = ComputeRefinedOEstimateOnGraph(graph);
      auto exact = ExactExpectedCracksByPermanent(graph);
      if (!naive.ok() || !propagated.ok() || !refined.ok() || !exact.ok()) {
        std::cerr << name << " failed\n";
        return;
      }
      auto pct = [&](double v) {
        return TablePrinter::Fmt(std::abs(v - *exact) / *exact * 100.0, 2);
      };
      table.AddRow({name, "naive OE", pct(naive->expected_cracks), "", ""});
      table.AddRow(
          {name, "propagated OE", pct(propagated->expected_cracks), "", ""});
      table.AddRow(
          {name, "refined OE", pct(refined->expected_cracks), "", ""});
    };
    auto fig6a = BipartiteGraph::FromAdjacency(
        4, {{0, 1, 2, 3}, {1, 2, 3}, {2, 3}, {3}});
    auto fig6b = BipartiteGraph::FromAdjacency(
        4, {{0, 1}, {0, 1, 2}, {2, 3}, {2, 3}});
    if (fig6a.ok()) report_instance("Fig. 6(a)", *fig6a);
    if (fig6b.ok()) report_instance("Fig. 6(b)", *fig6b);
  }

  std::cout << "\n" << table.ToString();
  std::cout << "\nReading: each refinement tightens the estimate — "
               "propagation fixes the\nFig. 6(a) cascade entirely, "
               "matching-cover pruning additionally fixes the\nFig. 6(b) "
               "tight-set artifact, and the residual error of the refined "
               "estimate\ncomes only from within-component non-uniformity "
               "(the chains family).\n";
  return 0;
}
