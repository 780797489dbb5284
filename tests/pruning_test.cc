#include <gtest/gtest.h>

#include "belief/builders.h"
#include "core/graph_oestimate.h"
#include "core/oestimate.h"
#include "data/frequency.h"
#include "graph/edge_pruning.h"
#include "graph/permanent.h"
#include "util/rng.h"

namespace anonsafe {
namespace {

/// Figure 6(b): four singleton frequency groups; items 1 and 2 cover
/// groups {0,1}, item 3 covers {1,2,3}, item 4 covers {2,3}. Every
/// perfect matching maps {1',2'} onto {1,2} and {3',4'} onto {3,4}; the
/// edge (2', 3) is irrelevant.
Result<BipartiteGraph> Figure6b() {
  return BipartiteGraph::FromAdjacency(
      4, {{0, 1}, {0, 1, 2}, {2, 3}, {2, 3}});
}

// ----------------------------------------------------------- MatchingCover

TEST(MatchingCoverTest, Figure6bPrunesIrrelevantEdge) {
  auto g = Figure6b();
  ASSERT_TRUE(g.ok());
  auto cover = ComputeMatchingCover(*g);
  ASSERT_TRUE(cover.ok());
  EXPECT_EQ(cover->pruned_edges, 1u);
  EXPECT_FALSE(cover->graph.HasEdge(1, 2));  // the paper's (2', 3)
  // All other edges survive.
  EXPECT_EQ(cover->graph.num_edges(), 8u);
  // Two identification components: {1,2} side and {3,4} side.
  EXPECT_EQ(cover->component_of_item[0], cover->component_of_item[1]);
  EXPECT_EQ(cover->component_of_item[2], cover->component_of_item[3]);
  EXPECT_NE(cover->component_of_item[0], cover->component_of_item[2]);
}

TEST(MatchingCoverTest, CompleteGraphKeepsEverything) {
  std::vector<std::vector<ItemId>> adj(4);
  for (size_t a = 0; a < 4; ++a) {
    for (size_t x = 0; x < 4; ++x) adj[a].push_back(static_cast<ItemId>(x));
  }
  auto g = BipartiteGraph::FromAdjacency(4, std::move(adj));
  ASSERT_TRUE(g.ok());
  auto cover = ComputeMatchingCover(*g);
  ASSERT_TRUE(cover.ok());
  EXPECT_EQ(cover->pruned_edges, 0u);
  // A complete graph is one big identification component.
  for (size_t x = 1; x < 4; ++x) {
    EXPECT_EQ(cover->component_of_item[0], cover->component_of_item[x]);
  }
}

TEST(MatchingCoverTest, NoPerfectMatchingFails) {
  auto g = BipartiteGraph::FromAdjacency(2, {{0}, {0}});
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE(ComputeMatchingCover(*g).status().IsFailedPrecondition());
}

TEST(MatchingCoverTest, PrunedEdgesAreExactlyUnusableOnes) {
  // Property check against enumeration: an edge survives iff some
  // perfect matching uses it.
  Rng rng(7);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t n = 2 + rng.UniformUint64(6);
    std::vector<std::vector<ItemId>> adj(n);
    for (size_t a = 0; a < n; ++a) {
      adj[a].push_back(static_cast<ItemId>(a));  // ensure perfect matching
      for (size_t x = 0; x < n; ++x) {
        if (rng.Bernoulli(0.4)) adj[a].push_back(static_cast<ItemId>(x));
      }
    }
    auto g = BipartiteGraph::FromAdjacency(n, std::move(adj));
    ASSERT_TRUE(g.ok());
    auto cover = ComputeMatchingCover(*g);
    ASSERT_TRUE(cover.ok());

    for (size_t a = 0; a < n; ++a) {
      for (ItemId x : g->items_of_anon(static_cast<ItemId>(a))) {
        // Count matchings through (a, x): force the edge by removing all
        // alternatives, then count perfect matchings of the rest.
        std::vector<std::vector<ItemId>> forced(n);
        for (size_t b = 0; b < n; ++b) {
          if (b == a) {
            forced[b] = {x};
            continue;
          }
          for (ItemId y : g->items_of_anon(static_cast<ItemId>(b))) {
            if (y != x) forced[b].push_back(y);
          }
        }
        auto fg = BipartiteGraph::FromAdjacency(n, std::move(forced));
        ASSERT_TRUE(fg.ok());
        auto count = CountPerfectMatchings(*fg);
        ASSERT_TRUE(count.ok());
        bool usable = *count > 0.0;
        EXPECT_EQ(cover->graph.HasEdge(static_cast<ItemId>(a), x), usable)
            << "trial " << trial << " edge (" << a << "," << x << ")";
      }
    }
  }
}

// ----------------------------------------------------------- SetDisclosure

TEST(SetDisclosureTest, Figure6bIdentifiesBothPairs) {
  auto g = Figure6b();
  ASSERT_TRUE(g.ok());
  auto sets = AnalyzeSetDisclosure(*g, /*small_set_threshold=*/2);
  ASSERT_TRUE(sets.ok());
  ASSERT_EQ(sets->identified_sets.size(), 2u);
  EXPECT_EQ(sets->identified_sets[0], (std::vector<ItemId>{0, 1}));
  EXPECT_EQ(sets->identified_sets[1], (std::vector<ItemId>{2, 3}));
  EXPECT_EQ(sets->certain_cracks, 0u);
  EXPECT_EQ(sets->small_sets, 2u);
  EXPECT_EQ(sets->items_in_small_sets, 4u);
}

TEST(SetDisclosureTest, StaircaseIsAllCertainCracks) {
  // Figure 6(a): propagation cracks everything; every set is a singleton.
  auto g = BipartiteGraph::FromAdjacency(
      4, {{0, 1, 2, 3}, {1, 2, 3}, {2, 3}, {3}});
  ASSERT_TRUE(g.ok());
  auto sets = AnalyzeSetDisclosure(*g);
  ASSERT_TRUE(sets.ok());
  EXPECT_EQ(sets->identified_sets.size(), 4u);
  EXPECT_EQ(sets->certain_cracks, 4u);
}

TEST(SetDisclosureTest, CompleteGraphIsOneBigSet) {
  std::vector<std::vector<ItemId>> adj(5);
  for (size_t a = 0; a < 5; ++a) {
    for (size_t x = 0; x < 5; ++x) adj[a].push_back(static_cast<ItemId>(x));
  }
  auto g = BipartiteGraph::FromAdjacency(5, std::move(adj));
  ASSERT_TRUE(g.ok());
  auto sets = AnalyzeSetDisclosure(*g);
  ASSERT_TRUE(sets.ok());
  ASSERT_EQ(sets->identified_sets.size(), 1u);
  EXPECT_EQ(sets->identified_sets[0].size(), 5u);
  EXPECT_EQ(sets->certain_cracks, 0u);
  EXPECT_EQ(sets->small_sets, 0u);
}

// ------------------------------------------------------- Graph O-estimates

TEST(GraphOEstimateTest, MatchesGroupFormOnIntervalBeliefs) {
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 5 + rng.UniformUint64(30);
    std::vector<SupportCount> supports(n);
    for (size_t i = 0; i < n; ++i) supports[i] = 1 + rng.UniformUint64(40);
    auto table = FrequencyTable::FromSupports(supports, 50);
    ASSERT_TRUE(table.ok());
    FrequencyGroups groups = FrequencyGroups::Build(*table);
    auto beta = MakeCompliantIntervalBelief(
        *table, 0.1 * rng.UniformDouble());
    ASSERT_TRUE(beta.ok());
    auto g = BipartiteGraph::Build(groups, *beta);
    ASSERT_TRUE(g.ok());

    for (bool propagate : {false, true}) {
      OEstimateOptions opt;
      opt.propagate = propagate;
      auto group_form = ComputeOEstimate(groups, *beta, opt);
      auto graph_form = ComputeOEstimateOnGraph(*g, opt);
      ASSERT_TRUE(group_form.ok());
      ASSERT_TRUE(graph_form.ok());
      EXPECT_NEAR(group_form->expected_cracks, graph_form->expected_cracks,
                  1e-9)
          << "trial " << trial << " propagate " << propagate;
    }
  }
}

TEST(GraphOEstimateTest, Figure6aPropagationOnExplicitGraph) {
  auto g = BipartiteGraph::FromAdjacency(
      4, {{0, 1, 2, 3}, {1, 2, 3}, {2, 3}, {3}});
  ASSERT_TRUE(g.ok());
  OEstimateOptions raw;
  raw.propagate = false;
  auto naive = ComputeOEstimateOnGraph(*g, raw);
  ASSERT_TRUE(naive.ok());
  EXPECT_NEAR(naive->expected_cracks, 25.0 / 12.0, 1e-12);
  auto propagated = ComputeOEstimateOnGraph(*g);
  ASSERT_TRUE(propagated.ok());
  EXPECT_NEAR(propagated->expected_cracks, 4.0, 1e-12);
  EXPECT_EQ(propagated->forced_items, 4u);
}

TEST(RefinedOEstimateTest, ExactOnFigure6b) {
  auto g = Figure6b();
  ASSERT_TRUE(g.ok());
  auto refined = ComputeRefinedOEstimateOnGraph(*g);
  ASSERT_TRUE(refined.ok());
  // Exact E(X) = 2 (four matchings with 4, 2, 2, 0 cracks).
  EXPECT_NEAR(refined->expected_cracks, 2.0, 1e-12);
  // Plain propagation cannot reach it.
  auto propagated = ComputeOEstimateOnGraph(*g);
  ASSERT_TRUE(propagated.ok());
  EXPECT_LT(propagated->expected_cracks, 2.0);
}

TEST(RefinedOEstimateTest, DominanceChainOnRandomInstances) {
  // naive <= propagated <= refined <= exact, on random compliant graphs.
  Rng rng(13);
  for (int trial = 0; trial < 30; ++trial) {
    const size_t n = 3 + rng.UniformUint64(6);
    std::vector<SupportCount> supports(n);
    for (size_t i = 0; i < n; ++i) supports[i] = 1 + rng.UniformUint64(10);
    auto table = FrequencyTable::FromSupports(supports, 20);
    ASSERT_TRUE(table.ok());
    FrequencyGroups groups = FrequencyGroups::Build(*table);
    auto beta = MakeCompliantIntervalBelief(
        *table, 0.25 * rng.UniformDouble());
    ASSERT_TRUE(beta.ok());
    auto g = BipartiteGraph::Build(groups, *beta);
    ASSERT_TRUE(g.ok());

    OEstimateOptions raw;
    raw.propagate = false;
    auto naive = ComputeOEstimateOnGraph(*g, raw);
    auto propagated = ComputeOEstimateOnGraph(*g);
    auto refined = ComputeRefinedOEstimateOnGraph(*g);
    auto exact = ExactExpectedCracksByPermanent(*g);
    ASSERT_TRUE(naive.ok());
    ASSERT_TRUE(propagated.ok());
    ASSERT_TRUE(refined.ok());
    ASSERT_TRUE(exact.ok());
    EXPECT_LE(naive->expected_cracks,
              propagated->expected_cracks + 1e-9);
    EXPECT_LE(propagated->expected_cracks,
              refined->expected_cracks + 1e-9);
    EXPECT_LE(refined->expected_cracks, *exact + 1e-6) << "trial " << trial;
  }
}

TEST(RefinedOEstimateTest, GroupFormConvenienceOverload) {
  auto table = FrequencyTable::FromSupports({5, 4, 5, 5, 3, 5}, 10);
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  auto beta = MakePointValuedBelief(*table);
  ASSERT_TRUE(beta.ok());
  auto refined = ComputeRefinedOEstimate(groups, *beta);
  ASSERT_TRUE(refined.ok());
  // Point-valued components are complete bipartite per group: refined
  // equals the exact g = 3 (Lemma 3).
  EXPECT_NEAR(refined->expected_cracks, 3.0, 1e-12);
}

}  // namespace
}  // namespace anonsafe
