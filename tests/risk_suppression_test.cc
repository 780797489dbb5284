#include <gtest/gtest.h>

#include "belief/builders.h"
#include "core/oestimate.h"
#include "core/per_item_risk.h"
#include "data/frequency.h"
#include "datagen/profile.h"
#include "defense/scheme.h"
#include "defense/suppression.h"
#include "util/rng.h"
#include "test_rows.h"

namespace anonsafe {
namespace {

Result<defense::DefensePlan> SuppressionPlan(const FrequencyTable& table,
                                             double tolerance,
                                             double max_fraction = 0.5,
                                             double rerank_batch = 8.0) {
  defense::DefenseParams params;
  params.Set("tolerance", tolerance);
  params.Set("max_suppressed_fraction", max_fraction);
  params.Set("rerank_batch", rerank_batch);
  return defense::DefenseScheme::Find("suppression")->Plan(table, params);
}

// -------------------------------------------------------------- PerItemRisk

TEST(PerItemRiskTest, RanksSingletonsAboveCamouflagedItems) {
  // Items 0-3 share one frequency group; items 4 and 5 are singletons.
  auto table = FrequencyTable::FromSupports({5, 5, 5, 5, 2, 8}, 10);
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  auto belief = MakePointValuedBelief(*table);
  ASSERT_TRUE(belief.ok());
  OEstimateOptions opt;
  opt.propagate = false;
  auto report = ComputePerItemRisk(groups, *belief, opt);
  ASSERT_TRUE(report.ok());

  ASSERT_EQ(report->ranked.size(), 6u);
  // The two singletons lead with probability 1.
  EXPECT_EQ(report->ranked[0].item, 4u);
  EXPECT_EQ(report->ranked[1].item, 5u);
  EXPECT_DOUBLE_EQ(report->ranked[0].crack_probability, 1.0);
  EXPECT_EQ(report->ranked[0].outdegree, 1u);
  // The camouflaged quartet follows at 1/4.
  for (size_t i = 2; i < 6; ++i) {
    EXPECT_DOUBLE_EQ(report->ranked[i].crack_probability, 0.25);
  }
  EXPECT_NEAR(report->total_expected_cracks, 3.0, 1e-12);  // Lemma 3 g=3
}

TEST(PerItemRiskTest, SumsToAggregateOEstimate) {
  Rng rng(3);
  auto profile = FrequencyProfile::Create(
      300, {{10, 4}, {60, 3}, {150, 2}, {250, 1}});
  ASSERT_TRUE(profile.ok());
  auto table = FrequencyTable::FromSupports(profile->ItemSupports(), 300);
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  auto belief = MakeCompliantIntervalBelief(*table, groups.MedianGap());
  ASSERT_TRUE(belief.ok());

  auto aggregate = ComputeOEstimate(groups, *belief);
  auto per_item = ComputePerItemRisk(groups, *belief);
  ASSERT_TRUE(aggregate.ok());
  ASSERT_TRUE(per_item.ok());
  EXPECT_NEAR(aggregate->expected_cracks, per_item->total_expected_cracks,
              1e-9);
}

TEST(PerItemRiskTest, ItemsAboveThreshold) {
  auto table = FrequencyTable::FromSupports({5, 5, 2, 8}, 10);
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  auto belief = MakePointValuedBelief(*table);
  ASSERT_TRUE(belief.ok());
  OEstimateOptions opt;
  opt.propagate = false;
  auto report = ComputePerItemRisk(groups, *belief, opt);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->ItemsAbove(0.9), (std::vector<ItemId>{2, 3}));
  EXPECT_EQ(report->ItemsAbove(0.1).size(), 4u);
  EXPECT_TRUE(report->ItemsAbove(1.1).empty());
}

TEST(PerItemRiskTest, ForcedItemsFlagged) {
  // Figure 6(a) staircase: all forced under propagation.
  auto table = FrequencyTable::FromSupports({10, 20, 30, 40}, 100);
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  auto staircase = BeliefFunction::Create(
      {{0.05, 0.15}, {0.05, 0.25}, {0.05, 0.35}, {0.05, 0.45}});
  ASSERT_TRUE(staircase.ok());
  auto report = ComputePerItemRisk(groups, *staircase);
  ASSERT_TRUE(report.ok());
  for (const ItemRisk& r : report->ranked) {
    EXPECT_TRUE(r.forced);
    EXPECT_DOUBLE_EQ(r.crack_probability, 1.0);
  }
}

// -------------------------------------------------------------- Suppression

TEST(SuppressionTest, PlanReachesTolerance) {
  // 16 frequency-unique items + a camouflaged mass of 24.
  std::vector<ProfileGroup> pg;
  for (size_t i = 0; i < 16; ++i) {
    pg.push_back({static_cast<SupportCount>(100 + 37 * i), 1});
  }
  pg.push_back({20, 24});
  auto profile = FrequencyProfile::Create(1000, pg);
  ASSERT_TRUE(profile.ok());
  auto table = FrequencyTable::FromSupports(profile->ItemSupports(), 1000);
  ASSERT_TRUE(table.ok());

  // budget = 4 cracks over n = 40
  auto plan = SuppressionPlan(*table, 0.1);
  ASSERT_TRUE(plan.ok());
  EXPECT_GT(plan->oe_before, 4.0);
  EXPECT_LE(plan->oe_after, 4.0 + 1e-9);
  EXPECT_FALSE(plan->suppressed.empty());
  EXPECT_EQ(plan->items_after + plan->suppressed.size(),
            plan->items_before);
  // The suppressed items are the frequency-unique ones, not the mass.
  for (ItemId x : plan->suppressed) EXPECT_GE(x, 24u);
}

TEST(SuppressionTest, AlreadySafeSuppressesNothing) {
  auto table = FrequencyTable::FromSupports(
      std::vector<SupportCount>(30, 7), 100);  // one big group
  ASSERT_TRUE(table.ok());
  auto plan = SuppressionPlan(*table, 0.2);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->suppressed.empty());
  EXPECT_EQ(plan->items_after, 30u);
}

TEST(SuppressionTest, CapStopsHopelessCases) {
  // Everything frequency-unique and widely separated: suppression can
  // only chip away one certain crack per item; a tight tolerance with a
  // small cap must fail cleanly.
  std::vector<SupportCount> supports(20);
  for (size_t i = 0; i < 20; ++i) supports[i] = 10 + 40 * i;
  auto table = FrequencyTable::FromSupports(supports, 1000);
  ASSERT_TRUE(table.ok());
  // budget = 1 crack, cap at 20% of items
  EXPECT_TRUE(SuppressionPlan(*table, 0.05, /*max_fraction=*/0.2)
                  .status()
                  .IsFailedPrecondition());
}

TEST(SuppressionTest, ValidatesOptions) {
  auto table = FrequencyTable::FromSupports({1, 2}, 10);
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE(SuppressionPlan(*table, 0.0).status().IsInvalidArgument());
  EXPECT_TRUE(SuppressionPlan(*table, 0.1, 0.5, /*rerank_batch=*/0.0)
                  .status()
                  .IsInvalidArgument());
}

TEST(ApplySuppressionTest, RemovesItemsAndEmptyTransactions) {
  Database db(4);
  ASSERT_TRUE(db.AddTransaction({0, 1}).ok());
  ASSERT_TRUE(db.AddTransaction({1}).ok());
  ASSERT_TRUE(db.AddTransaction({2, 3}).ok());
  auto out = ApplySuppression(db, {1});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_transactions(), 2u);  // {1} vanished entirely
  EXPECT_EQ(Row(*out, 0), (Transaction{0}));
  auto table = FrequencyTable::Compute(*out);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->support(1), 0u);
  EXPECT_TRUE(ApplySuppression(db, {9}).status().IsInvalidArgument());
}

TEST(SuppressionIntegrationTest, AppliedDatabasePassesTolerance) {
  Rng rng(41);
  std::vector<ProfileGroup> pg;
  for (size_t i = 0; i < 12; ++i) {
    pg.push_back({static_cast<SupportCount>(50 + 23 * i), 1});
  }
  pg.push_back({10, 20});
  auto profile = FrequencyProfile::Create(500, pg);
  ASSERT_TRUE(profile.ok());
  auto db = GenerateDatabase(*profile, &rng);
  ASSERT_TRUE(db.ok());
  auto table = FrequencyTable::Compute(*db);
  ASSERT_TRUE(table.ok());

  const double tolerance = 0.15;
  auto plan = SuppressionPlan(*table, tolerance);
  ASSERT_TRUE(plan.ok());
  auto released = ApplySuppression(*db, plan->suppressed);
  ASSERT_TRUE(released.ok());

  // Re-assess the released copy over its surviving items.
  auto released_table = FrequencyTable::Compute(*released);
  ASSERT_TRUE(released_table.ok());
  std::vector<SupportCount> survivors;
  for (ItemId x = 0; x < released->num_items(); ++x) {
    if (released_table->support(x) > 0) {
      survivors.push_back(released_table->support(x));
    }
  }
  auto survivor_table = FrequencyTable::FromSupports(
      survivors, released->num_transactions());
  ASSERT_TRUE(survivor_table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*survivor_table);
  auto belief = MakeCompliantIntervalBelief(*survivor_table,
                                            groups.MedianGap());
  ASSERT_TRUE(belief.ok());
  auto oe = ComputeOEstimate(groups, *belief);
  ASSERT_TRUE(oe.ok());
  // Within the planned budget, with slack for dropped-empty-transaction
  // frequency shifts.
  double budget = tolerance * static_cast<double>(plan->items_before);
  EXPECT_LE(oe->expected_cracks, budget * 1.25 + 0.5);
}

}  // namespace
}  // namespace anonsafe
