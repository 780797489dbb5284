#include <gtest/gtest.h>

#include <algorithm>

#include "data/database.h"
#include "datagen/quest.h"
#include "mining/itemset.h"
#include "mining/miner.h"
#include "test_rows.h"

namespace anonsafe {
namespace {

Database Classic() {
  // The canonical Agrawal-Srikant style toy database.
  Database db(5);
  EXPECT_TRUE(db.AddTransaction({0, 1, 4}).ok());
  EXPECT_TRUE(db.AddTransaction({1, 3}).ok());
  EXPECT_TRUE(db.AddTransaction({1, 2}).ok());
  EXPECT_TRUE(db.AddTransaction({0, 1, 3}).ok());
  EXPECT_TRUE(db.AddTransaction({0, 2}).ok());
  EXPECT_TRUE(db.AddTransaction({1, 2}).ok());
  EXPECT_TRUE(db.AddTransaction({0, 2}).ok());
  EXPECT_TRUE(db.AddTransaction({0, 1, 2, 4}).ok());
  EXPECT_TRUE(db.AddTransaction({0, 1, 2}).ok());
  return db;
}

// ----------------------------------------------------------------- Itemset

TEST(ItemsetTest, SubsetCheck) {
  EXPECT_TRUE(IsSubsetOf({1, 3}, {0, 1, 2, 3}));
  EXPECT_FALSE(IsSubsetOf({1, 5}, {0, 1, 2, 3}));
  EXPECT_TRUE(IsSubsetOf({}, {0}));
  EXPECT_FALSE(IsSubsetOf({0}, {}));
}

TEST(ItemsetTest, CanonicalOrderSizeThenLex) {
  FrequentItemset a{{5}, 1}, b{{0, 1}, 1}, c{{0, 2}, 1};
  EXPECT_TRUE(CanonicalLess(a, b));
  EXPECT_TRUE(CanonicalLess(b, c));
  EXPECT_FALSE(CanonicalLess(c, b));
  std::vector<FrequentItemset> v = {c, a, b};
  SortCanonical(&v);
  EXPECT_EQ(v[0].items, (Itemset{5}));
  EXPECT_EQ(v[2].items, (Itemset{0, 2}));
}

TEST(ItemsetTest, ToStringForms) {
  EXPECT_EQ(ItemsetToString({1, 5, 9}), "{1, 5, 9}");
  EXPECT_EQ(ToString(FrequentItemset{{2}, 7}), "{2}:7");
}

TEST(ItemsetTest, HashDistinguishesSets) {
  ItemsetHash h;
  EXPECT_NE(h({1, 2}), h({2, 1, 1}));  // different vectors hash differently
  EXPECT_EQ(h({1, 2, 3}), h({1, 2, 3}));
}

// ------------------------------------------------------------------ Miners

TEST(MinerTest, ThresholdComputation) {
  MiningOptions opt;
  opt.min_support = 0.25;
  EXPECT_EQ(opt.AbsoluteThreshold(8), 2u);
  opt.min_support = 0.3;
  EXPECT_EQ(opt.AbsoluteThreshold(10), 3u);
  opt.min_support = 1e-9;
  EXPECT_EQ(opt.AbsoluteThreshold(10), 1u);
  opt.min_support = 1.0;
  EXPECT_EQ(opt.AbsoluteThreshold(10), 10u);
}

TEST(MinerTest, ValidatesInputs) {
  Database empty(3);
  MiningOptions opt;
  EXPECT_TRUE(MineApriori(empty, opt).status().IsInvalidArgument());
  EXPECT_TRUE(MineFPGrowth(empty, opt).status().IsInvalidArgument());
  Database db(2);
  ASSERT_TRUE(db.AddTransaction({0}).ok());
  opt.min_support = 0.0;
  EXPECT_TRUE(MineApriori(db, opt).status().IsInvalidArgument());
  opt.min_support = 1.5;
  EXPECT_TRUE(MineFPGrowth(db, opt).status().IsInvalidArgument());
}

TEST(MinerTest, AprioriKnownResult) {
  Database db = Classic();
  MiningOptions opt;
  opt.min_support = 4.0 / 9.0;  // absolute threshold 4
  auto result = MineApriori(db, opt);
  ASSERT_TRUE(result.ok());
  // Supports: 0:6, 1:7, 2:6, 3:2, 4:2; pairs {0,1}:4, {0,2}:4, {1,2}:4.
  std::vector<FrequentItemset> expected = {
      {{0}, 6}, {{1}, 7}, {{2}, 6}, {{0, 1}, 4}, {{0, 2}, 4}, {{1, 2}, 4}};
  SortCanonical(&expected);
  EXPECT_EQ(*result, expected);
}

TEST(MinerTest, AprioriAndFPGrowthAgreeOnClassic) {
  Database db = Classic();
  for (double ms : {0.2, 0.34, 0.5, 0.8}) {
    MiningOptions opt;
    opt.min_support = ms;
    auto a = MineApriori(db, opt);
    auto f = MineFPGrowth(db, opt);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(f.ok());
    EXPECT_EQ(*a, *f) << "min_support=" << ms;
  }
}

class MinerAgreementTest : public ::testing::TestWithParam<
                               std::tuple<uint64_t, double>> {};

TEST_P(MinerAgreementTest, AprioriEqualsFPGrowthOnQuestData) {
  auto [seed, min_support] = GetParam();
  QuestParams params;
  params.num_items = 40;
  params.num_transactions = 300;
  params.avg_txn_size = 6.0;
  params.num_patterns = 20;
  params.avg_pattern_size = 3.0;
  params.seed = seed;
  auto db = GenerateQuestDatabase(params);
  ASSERT_TRUE(db.ok());

  MiningOptions opt;
  opt.min_support = min_support;
  auto a = MineApriori(*db, opt);
  auto f = MineFPGrowth(*db, opt);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(f.ok());
  ASSERT_EQ(a->size(), f->size());
  EXPECT_EQ(*a, *f);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MinerAgreementTest,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u),
                       ::testing::Values(0.05, 0.1, 0.2)));

TEST(MinerTest, MaxItemsetSizeCap) {
  Database db = Classic();
  MiningOptions opt;
  opt.min_support = 0.2;
  opt.max_itemset_size = 1;
  auto a = MineApriori(db, opt);
  auto f = MineFPGrowth(db, opt);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(f.ok());
  for (const auto& fi : *a) EXPECT_EQ(fi.items.size(), 1u);
  EXPECT_EQ(*a, *f);

  opt.max_itemset_size = 2;
  a = MineApriori(db, opt);
  f = MineFPGrowth(db, opt);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(f.ok());
  for (const auto& fi : *a) EXPECT_LE(fi.items.size(), 2u);
  EXPECT_EQ(*a, *f);
}

TEST(MinerTest, SupportsAreExact) {
  Database db = Classic();
  MiningOptions opt;
  opt.min_support = 0.1;
  auto result = MineFPGrowth(db, opt);
  ASSERT_TRUE(result.ok());
  // Spot-check by brute force.
  for (const auto& fi : *result) {
    size_t count = 0;
    for (const auto& txn : Rows(db)) {
      if (IsSubsetOf(fi.items, txn)) ++count;
    }
    EXPECT_EQ(fi.support, count) << ToString(fi);
  }
}

TEST(MinerTest, NoFrequentItemsAtImpossibleThreshold) {
  Database db = Classic();
  MiningOptions opt;
  opt.min_support = 1.0;
  auto a = MineApriori(db, opt);
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE(a->empty());
  auto f = MineFPGrowth(db, opt);
  ASSERT_TRUE(f.ok());
  EXPECT_TRUE(f->empty());
}

TEST(MinerTest, SingleTransactionAllSubsetsFrequent) {
  Database db(3);
  ASSERT_TRUE(db.AddTransaction({0, 1, 2}).ok());
  MiningOptions opt;
  opt.min_support = 1.0;
  auto f = MineFPGrowth(db, opt);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f->size(), 7u);  // all non-empty subsets of {0,1,2}
  auto a = MineApriori(db, opt);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a, *f);
}

TEST(FrequentItemsTest, ReturnsFrequentSingletons) {
  Database db = Classic();
  auto items = FrequentItems(db, 6.0 / 9.0);
  ASSERT_TRUE(items.ok());
  EXPECT_EQ(*items, (std::vector<ItemId>{0, 1, 2}));  // supports 6, 7, 6
}

}  // namespace
}  // namespace anonsafe
