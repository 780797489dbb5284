// E6 — the paper's worked micro-examples, recomputed by the library:
//   * BigMart (Figures 1-3): frequency groups, belief-function outdegrees,
//     point-valued worst case g = 3;
//   * Figure 4(a): chain E(X) = 74/45 and O-estimate 197/120;
//   * Figure 6(a): degree-1 propagation turns a naive OE of 25/12 into the
//     certain 4 cracks;
//   * Lemma 1 sanity: ignorant hacker cracks exactly 1 item in expectation
//     at any domain size.
// Every row prints the paper's value next to the library's value; any
// mismatch exits non-zero, so this binary doubles as an acceptance check.

#include <cmath>
#include <iostream>

#include "belief/builders.h"
#include "belief/chain.h"
#include "bench_common.h"
#include "core/exact_formulas.h"
#include "core/oestimate.h"
#include "data/frequency.h"
#include "graph/bipartite_graph.h"
#include "graph/permanent.h"
#include "util/table_printer.h"

using namespace anonsafe;
using namespace anonsafe::bench;

namespace {

int g_failures = 0;

void Check(TablePrinter* table, const std::string& what, double paper,
           double computed, double tol = 1e-9) {
  bool ok = std::abs(paper - computed) <= tol;
  if (!ok) ++g_failures;
  table->AddRow({what, TablePrinter::FmtG(paper, 10),
                 TablePrinter::FmtG(computed, 10), ok ? "ok" : "MISMATCH"});
}

}  // namespace

int main() {
  PrintBanner("E6 / paper worked examples",
              "BigMart, Fig. 4(a), Fig. 6(a), Lemma 1");
  TablePrinter table({"quantity", "paper value", "library value", ""});

  // ---- BigMart (Figures 1-3) ------------------------------------------
  auto bigmart = FrequencyTable::FromSupports({5, 4, 5, 5, 3, 5}, 10);
  if (!bigmart.ok()) return 1;
  FrequencyGroups groups = FrequencyGroups::Build(*bigmart);
  Check(&table, "BigMart frequency groups g",
        3.0, static_cast<double>(groups.num_groups()));
  Check(&table, "BigMart point-valued E(X) (Lemma 3)", 3.0,
        PointValuedExpectedCracks(groups));

  // Belief h of Figure 2: candidates of 1' = {1,2,3,4,6} (5 items) and of
  // 2' = {1,2,4,5} (4 items) — expressed here as outdegrees of the
  // matching items in the consistency graph.
  auto h = BeliefFunction::Create({{0.0, 1.0},
                                   {0.4, 0.5},
                                   {0.5, 0.5},
                                   {0.4, 0.6},
                                   {0.1, 0.4},
                                   {0.5, 0.5}});
  if (!h.ok()) return 1;
  OEstimateOptions raw;
  raw.propagate = false;
  auto oe_h = ComputeOEstimate(groups, *h, raw);
  if (!oe_h.ok()) return 1;
  Check(&table, "BigMart h: OE (1/6+1/5+1/4+1/5+1/2+1/4)",
        1.0 / 6 + 1.0 / 5 + 1.0 / 4 + 1.0 / 5 + 1.0 / 2 + 1.0 / 4,
        oe_h->expected_cracks);
  // Exact E(X) for h via the direct (permanent) method as extra context.
  auto graph_h = BipartiteGraph::Build(groups, *h);
  if (!graph_h.ok()) return 1;
  auto direct_h = ExactExpectedCracksByPermanent(*graph_h);
  if (direct_h.ok()) {
    table.AddRow({"BigMart h: exact E(X) (direct method)", "-",
                  TablePrinter::FmtG(*direct_h, 10), ""});
  }

  // ---- Figure 4(a): the length-2 chain --------------------------------
  ChainSpec fig4a;
  fig4a.n = {5, 3};
  fig4a.e = {3, 2};
  fig4a.s = {3};
  auto exact = ChainExactExpectedCracks(fig4a);
  auto oe = ChainOEstimate(fig4a);
  if (!exact.ok() || !oe.ok()) return 1;
  Check(&table, "Fig. 4(a) chain exact E(X) = 74/45", 74.0 / 45.0, *exact);
  Check(&table, "Fig. 4(a) chain O-estimate = 197/120", 197.0 / 120.0, *oe);

  // Cross-check Lemma 6 against the permanent-based direct method on the
  // realized chain.
  auto realized = RealizeChain(fig4a, 100);
  if (!realized.ok()) return 1;
  auto rt = FrequencyTable::FromSupports(realized->item_supports,
                                         realized->num_transactions);
  if (!rt.ok()) return 1;
  FrequencyGroups rg = FrequencyGroups::Build(*rt);
  auto rgraph = BipartiteGraph::Build(rg, realized->belief);
  if (!rgraph.ok()) return 1;
  auto direct = ExactExpectedCracksByPermanent(*rgraph);
  if (!direct.ok()) return 1;
  Check(&table, "Fig. 4(a) direct method agrees", 74.0 / 45.0, *direct,
        1e-6);

  // ---- Figure 6(a): propagation ----------------------------------------
  auto stair_table = FrequencyTable::FromSupports({10, 20, 30, 40}, 100);
  if (!stair_table.ok()) return 1;
  FrequencyGroups stair_groups = FrequencyGroups::Build(*stair_table);
  auto staircase = BeliefFunction::Create(
      {{0.05, 0.15}, {0.05, 0.25}, {0.05, 0.35}, {0.05, 0.45}});
  if (!staircase.ok()) return 1;
  auto naive = ComputeOEstimate(stair_groups, *staircase, raw);
  auto propagated = ComputeOEstimate(stair_groups, *staircase);
  if (!naive.ok() || !propagated.ok()) return 1;
  Check(&table, "Fig. 6(a) naive OE = 25/12", 25.0 / 12.0,
        naive->expected_cracks);
  Check(&table, "Fig. 6(a) OE after propagation = 4", 4.0,
        propagated->expected_cracks);

  // ---- Lemma 1 ----------------------------------------------------------
  for (size_t n : {10u, 1000u}) {
    auto direct_ign = [&]() -> Result<double> {
      if (n > 10) return IgnorantExpectedCracks(n);  // formula only
      std::vector<SupportCount> supports(n);
      for (size_t i = 0; i < n; ++i) supports[i] = i + 1;
      ANONSAFE_ASSIGN_OR_RETURN(
          FrequencyTable t, FrequencyTable::FromSupports(supports, 2000));
      FrequencyGroups g = FrequencyGroups::Build(t);
      ANONSAFE_ASSIGN_OR_RETURN(
          BipartiteGraph graph,
          BipartiteGraph::Build(g, MakeIgnorantBelief(n)));
      return ExactExpectedCracksByPermanent(graph);
    }();
    if (!direct_ign.ok()) return 1;
    Check(&table,
          "Lemma 1 E(X)=1, n=" + std::to_string(n) +
              (n <= 10 ? " (permanent)" : " (formula)"),
          1.0, *direct_ign, 1e-6);
  }

  std::cout << "\n" << table.ToString();
  if (g_failures == 0) {
    std::cout << "\nAll " << table.num_rows()
              << " worked-example quantities reproduce the paper.\n";
  } else {
    std::cout << "\n" << g_failures << " MISMATCHES — investigate!\n";
  }
  return g_failures == 0 ? 0 : 1;
}
