// Deliberate edge-path coverage: each test exercises one code path the
// mainline suites do not reach (guards, degenerate inputs, rendering
// corners), so regressions in rarely-taken branches still fail fast.

#include <gtest/gtest.h>

#include <cstdint>

#include "belief/builders.h"
#include "core/risk_report.h"
#include "data/frequency.h"
#include "datagen/profile.h"
#include "graph/bipartite_graph.h"
#include "graph/consistency.h"
#include "graph/matching_sampler.h"
#include "mining/rules.h"
#include "powerset/support_oracle.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/table_printer.h"

namespace anonsafe {
namespace {

TEST(TablePrinterEdgeTest, SeparatorsRenderBetweenRows) {
  TablePrinter t({"a"});
  t.AddRow({"x"});
  t.AddSeparator();
  t.AddRow({"y"});
  std::string s = t.ToString();
  // Header sep + mid sep + trailing sep = at least 4 separator lines.
  size_t count = 0, pos = 0;
  while ((pos = s.find("+---", pos)) != std::string::npos) {
    ++count;
    pos += 4;
  }
  EXPECT_GE(count, 4u);
  EXPECT_EQ(t.num_rows(), 3u);  // separator counts as a row slot
}

TEST(BipartiteGraphEdgeTest, RowMasksRejectWideGraphs) {
  std::vector<std::vector<ItemId>> adj(65);
  for (size_t a = 0; a < 65; ++a) adj[a] = {static_cast<ItemId>(a)};
  auto g = BipartiteGraph::FromAdjacency(65, std::move(adj));
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE(g->ToRowMasks().status().IsOutOfRange());
}

TEST(ConsistencyEdgeTest, BeliefGroupsIncludeDeadBucket) {
  auto table = FrequencyTable::FromSupports({10, 20, 30}, 100);
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  // Items 0 and 1 share a range; item 2 stabs nothing (dead).
  auto belief = BeliefFunction::Create(
      {{0.05, 0.35}, {0.05, 0.35}, {0.5, 0.6}});
  ASSERT_TRUE(belief.ok());
  auto cs = ConsistencyStructure::Build(groups, *belief);
  ASSERT_TRUE(cs.ok());
  auto bg = cs->BeliefGroups();
  ASSERT_EQ(bg.size(), 2u);
  EXPECT_EQ(bg[0], (std::vector<ItemId>{0, 1}));
  EXPECT_EQ(bg[1], (std::vector<ItemId>{2}));  // the dead bucket, last
}

TEST(ProfileEdgeTest, ScalingUpPreservesStructure) {
  auto p = FrequencyProfile::Create(100, {{3, 2}, {40, 1}, {90, 3}});
  ASSERT_TRUE(p.ok());
  auto up = p->Scaled(10.0);
  ASSERT_TRUE(up.ok());
  EXPECT_EQ(up->num_transactions(), 1000u);
  EXPECT_EQ(up->num_groups(), 3u);
  EXPECT_EQ(up->groups()[0].support, 30u);
  EXPECT_EQ(up->groups()[2].support, 900u);
}

TEST(ResultEdgeTest, MoveAndMutateThroughAccessors) {
  Result<std::vector<int>> r = std::vector<int>{1, 2, 3};
  ASSERT_TRUE(r.ok());
  r->push_back(4);                    // operator-> mutation
  (*r)[0] = 9;                        // operator* mutation
  EXPECT_EQ(r.value().size(), 4u);
  std::vector<int> moved = std::move(r).value();  // rvalue value()
  EXPECT_EQ(moved, (std::vector<int>{9, 2, 3, 4}));
}

TEST(RngEdgeTest, UniformIntFullSpan) {
  Rng rng(1);
  // lo == INT64_MIN, hi == INT64_MAX exercises the span-overflow branch.
  int64_t v = rng.UniformInt(INT64_MIN, INT64_MAX);
  (void)v;  // any value is valid; the test is that it terminates
  // Degenerate single-point range.
  EXPECT_EQ(rng.UniformInt(42, 42), 42);
}

TEST(RngEdgeTest, UniformIntWideSpansMatchSignedFormula) {
  // Spans wider than INT64_MAX used to overflow `hi - lo` or `lo + r`;
  // every value must stay in range.
  Rng rng(3);
  for (int i = 0; i < 64; ++i) {
    int64_t v = rng.UniformInt(INT64_MIN, INT64_MAX - 1);
    EXPECT_LT(v, INT64_MAX);
    v = rng.UniformInt(-2, INT64_MAX);
    EXPECT_GE(v, -2);
  }
  // Where the signed formula does not overflow, the draws are the same.
  Rng a(11), b(11);
  const int64_t ranges[][2] = {{0, 9}, {-5, 5}, {-1000000007, 3}, {7, 7}};
  for (int i = 0; i < 200; ++i) {
    const auto& r = ranges[i % 4];
    const uint64_t span = static_cast<uint64_t>(r[1] - r[0]) + 1;
    EXPECT_EQ(a.UniformInt(r[0], r[1]),
              r[0] + static_cast<int64_t>(b.UniformUint64(span)));
  }
  EXPECT_EQ(a.Next(), b.Next());
}

TEST(SamplerEdgeTest, EffectiveBurnInScaling) {
  SamplerOptions opt;
  opt.burn_in_sweeps = 300;
  opt.burn_in_scale = 2.0;
  EXPECT_EQ(opt.EffectiveBurnIn(10), 300u);     // minimum dominates
  EXPECT_EQ(opt.EffectiveBurnIn(1000), 2000u);  // scaling dominates
  opt.burn_in_scale = 0.0;
  EXPECT_EQ(opt.EffectiveBurnIn(1000000), 300u);  // scaling disabled
}

TEST(RulesEdgeTest, OversizedItemsetsSkipped) {
  // A frequent itemset above max_itemset_size produces no rules even
  // though its subsets are present.
  std::vector<FrequentItemset> frequent = {
      {{0}, 5}, {{1}, 5}, {{2}, 5},
      {{0, 1}, 4}, {{0, 2}, 4}, {{1, 2}, 4},
      {{0, 1, 2}, 3}};
  RuleOptions opt;
  opt.min_confidence = 0.01;
  opt.max_itemset_size = 2;
  auto rules = GenerateRules(frequent, 10, opt);
  ASSERT_TRUE(rules.ok());
  for (const auto& rule : *rules) {
    EXPECT_LE(rule.antecedent.size() + rule.consequent.size(), 2u);
  }
}

TEST(RiskReportEdgeTest, BreachingSampleFractionWarning) {
  // A dataset risky enough for an alpha bound whose small samples already
  // reach alpha_max: the report must carry the DO-NOT-DISCLOSE warning.
  Rng rng(31);
  std::vector<ProfileGroup> pg;
  for (size_t i = 0; i < 30; ++i) {
    pg.push_back({static_cast<SupportCount>(40 + 29 * i), 1});
  }
  auto profile = FrequencyProfile::Create(1000, pg);
  ASSERT_TRUE(profile.ok());
  auto db = GenerateDatabase(*profile, &rng);
  ASSERT_TRUE(db.ok());

  RiskReportOptions options;
  options.recipe.tolerance = 0.05;
  options.similarity.sample_fractions = {0.5, 0.9};
  options.similarity.samples_per_fraction = 3;
  auto report = BuildRiskReport(*db, options);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->recipe.decision, RecipeDecision::kAlphaBound);
  if (report->breaching_sample_fraction > 0.0) {
    EXPECT_NE(report->ToText().find("DO NOT DISCLOSE"), std::string::npos);
  } else {
    EXPECT_NE(report->ToText().find("better-than-similar"),
              std::string::npos);
  }
}

TEST(SupportOracleEdgeTest, LargeTransactionCountWordBoundaries) {
  // 130 transactions spans three 64-bit words; supports must be exact at
  // the word boundaries (transactions 63, 64, 127, 128).
  Database db(2);
  for (int t = 0; t < 130; ++t) {
    Transaction txn;
    txn.push_back(0);
    if (t == 63 || t == 64 || t == 127 || t == 128) txn.push_back(1);
    ASSERT_TRUE(db.AddTransaction(txn).ok());
  }
  auto oracle = SupportOracle::Build(db);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(oracle->Support({0}), 130u);
  EXPECT_EQ(oracle->Support({1}), 4u);
  EXPECT_EQ(oracle->Support({0, 1}), 4u);
}

TEST(BuilderEdgeTest, ZeroWidthIntervalBeliefEqualsPointValued) {
  auto table = FrequencyTable::FromSupports({2, 5, 8}, 10);
  ASSERT_TRUE(table.ok());
  auto interval = MakeCompliantIntervalBelief(*table, 0.0);
  auto point = MakePointValuedBelief(*table);
  ASSERT_TRUE(interval.ok());
  ASSERT_TRUE(point.ok());
  for (ItemId x = 0; x < 3; ++x) {
    EXPECT_EQ(interval->interval(x), point->interval(x));
  }
  EXPECT_TRUE(interval->IsPointValued());
}

TEST(FrequencyEdgeTest, ZeroSupportItemsFormLowestGroup) {
  auto table = FrequencyTable::FromSupports({0, 0, 5}, 10);
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  ASSERT_EQ(groups.num_groups(), 2u);
  EXPECT_EQ(groups.group_support(0), 0u);
  EXPECT_EQ(groups.group_size(0), 2u);
  EXPECT_DOUBLE_EQ(groups.group_frequency(0), 0.0);
  size_t lo = 9, hi = 9;
  ASSERT_TRUE(groups.StabRange(0.0, 0.0, &lo, &hi));
  EXPECT_EQ(lo, 0u);
  EXPECT_EQ(hi, 0u);
}

}  // namespace
}  // namespace anonsafe
