#include <gtest/gtest.h>

#include <algorithm>

#include "data/frequency.h"
#include "datagen/benchmark_profiles.h"
#include "datagen/profile.h"
#include "datagen/quest.h"
#include "util/rng.h"
#include "test_rows.h"

namespace anonsafe {
namespace {

// ----------------------------------------------------------------- Profile

TEST(ProfileTest, CreateValidatesAndSorts) {
  auto p = FrequencyProfile::Create(100, {{50, 2}, {10, 3}});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->num_groups(), 2u);
  EXPECT_EQ(p->groups()[0].support, 10u);  // sorted ascending
  EXPECT_EQ(p->num_items(), 5u);

  EXPECT_TRUE(FrequencyProfile::Create(0, {{1, 1}})
                  .status().IsInvalidArgument());
  EXPECT_TRUE(FrequencyProfile::Create(100, {}).status().IsInvalidArgument());
  EXPECT_TRUE(FrequencyProfile::Create(100, {{0, 1}})
                  .status().IsInvalidArgument());
  EXPECT_TRUE(FrequencyProfile::Create(100, {{101, 1}})
                  .status().IsInvalidArgument());
  EXPECT_TRUE(FrequencyProfile::Create(100, {{5, 0}})
                  .status().IsInvalidArgument());
  EXPECT_TRUE(FrequencyProfile::Create(100, {{5, 1}, {5, 2}})
                  .status().IsInvalidArgument());
}

TEST(ProfileTest, ItemSupportsExpansion) {
  auto p = FrequencyProfile::Create(10, {{2, 2}, {7, 1}});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->ItemSupports(), (std::vector<SupportCount>{2, 2, 7}));
}

TEST(ProfileTest, ToFrequencyGroupsMatchesSpec) {
  auto p = FrequencyProfile::Create(10, {{2, 2}, {7, 3}});
  ASSERT_TRUE(p.ok());
  FrequencyGroups fg = p->ToFrequencyGroups();
  EXPECT_EQ(fg.num_groups(), 2u);
  EXPECT_EQ(fg.group_size(0), 2u);
  EXPECT_EQ(fg.group_size(1), 3u);
  EXPECT_DOUBLE_EQ(fg.group_frequency(1), 0.7);
}

TEST(ProfileTest, ScaledPreservesGroupCount) {
  auto p = FrequencyProfile::Create(1000, {{10, 2}, {11, 1}, {500, 3}});
  ASSERT_TRUE(p.ok());
  auto scaled = p->Scaled(0.1);
  ASSERT_TRUE(scaled.ok());
  EXPECT_EQ(scaled->num_transactions(), 100u);
  EXPECT_EQ(scaled->num_groups(), 3u);
  EXPECT_EQ(scaled->num_items(), 6u);
  // Supports strictly increasing and within range.
  const auto& groups = scaled->groups();
  for (size_t i = 0; i < groups.size(); ++i) {
    EXPECT_GE(groups[i].support, 1u);
    EXPECT_LE(groups[i].support, 100u);
    if (i > 0) {
      EXPECT_GT(groups[i].support, groups[i - 1].support);
    }
  }
}

TEST(ProfileTest, ScaledFailsWhenGroupsCannotFit) {
  std::vector<ProfileGroup> groups;
  for (SupportCount s = 1; s <= 50; ++s) groups.push_back({s, 1});
  auto p = FrequencyProfile::Create(100, groups);
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p->Scaled(0.1).status().IsInvalidArgument());
}

// --------------------------------------------------------- GenerateDatabase

TEST(GenerateDatabaseTest, RealizesProfileExactly) {
  Rng rng(99);
  auto p = FrequencyProfile::Create(200, {{3, 5}, {50, 2}, {120, 4}});
  ASSERT_TRUE(p.ok());
  auto db = GenerateDatabase(*p, &rng);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->num_items(), 11u);
  EXPECT_EQ(db->num_transactions(), 200u);

  auto table = FrequencyTable::Compute(*db);
  ASSERT_TRUE(table.ok());
  std::vector<SupportCount> expected = p->ItemSupports();
  for (ItemId x = 0; x < db->num_items(); ++x) {
    EXPECT_EQ(table->support(x), expected[x]) << "item " << x;
  }
  // Every transaction non-empty by construction.
  for (const auto& t : Rows(*db)) EXPECT_FALSE(t.empty());
}

TEST(GenerateDatabaseTest, RepairPathKeepsSupports) {
  // Sparse profile: occurrences barely exceed transactions, so the repair
  // pass for empty transactions must trigger while preserving supports.
  Rng rng(7);
  auto p = FrequencyProfile::Create(50, {{1, 30}, {25, 1}});
  ASSERT_TRUE(p.ok());  // occurrences = 30 + 25 = 55 >= 50
  auto db = GenerateDatabase(*p, &rng);
  ASSERT_TRUE(db.ok());
  for (const auto& t : Rows(*db)) EXPECT_FALSE(t.empty());
  auto table = FrequencyTable::Compute(*db);
  ASSERT_TRUE(table.ok());
  for (ItemId x = 0; x < 30; ++x) EXPECT_EQ(table->support(x), 1u);
  EXPECT_EQ(table->support(30), 25u);
}

TEST(GenerateDatabaseTest, FailsWhenTransactionsCannotBeCovered) {
  Rng rng(7);
  auto p = FrequencyProfile::Create(100, {{1, 10}});  // 10 occurrences < 100
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(GenerateDatabase(*p, &rng).status().IsInvalidArgument());
}

TEST(GenerateUniformDatabaseTest, ShapeAndValidation) {
  Rng rng(3);
  auto db = GenerateUniformDatabase(20, 15, 4, &rng);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->num_transactions(), 15u);
  for (const auto& t : Rows(*db)) EXPECT_EQ(t.size(), 4u);
  EXPECT_TRUE(GenerateUniformDatabase(3, 5, 0, &rng)
                  .status().IsInvalidArgument());
  EXPECT_TRUE(GenerateUniformDatabase(3, 5, 4, &rng)
                  .status().IsInvalidArgument());
}

TEST(ZipfProfileTest, ShapeAndValidation) {
  auto profile = MakeZipfProfile(1000, 5000, 1.0, 0.5);
  ASSERT_TRUE(profile.ok());
  EXPECT_EQ(profile->num_items(), 1000u);
  // Head: the most frequent item sits alone at ~0.5.
  const auto& groups = profile->groups();
  EXPECT_EQ(groups.back().size, 1u);
  EXPECT_NEAR(static_cast<double>(groups.back().support) / 5000.0, 0.5,
              0.01);
  // Tail: many items collapse into few low-support groups.
  EXPECT_GT(groups.front().size, 100u);
  EXPECT_LT(profile->num_groups(), 1000u);

  EXPECT_TRUE(MakeZipfProfile(0, 100, 1.0, 0.5)
                  .status().IsInvalidArgument());
  EXPECT_TRUE(MakeZipfProfile(10, 100, 0.0, 0.5)
                  .status().IsInvalidArgument());
  EXPECT_TRUE(MakeZipfProfile(10, 100, 1.0, 1.5)
                  .status().IsInvalidArgument());
  EXPECT_TRUE(MakeZipfProfile(10, 0, 1.0, 0.5)
                  .status().IsInvalidArgument());
}

TEST(ZipfProfileTest, SteeperExponentFewerGroups) {
  auto flat = MakeZipfProfile(500, 2000, 0.5, 0.6);
  auto steep = MakeZipfProfile(500, 2000, 2.0, 0.6);
  ASSERT_TRUE(flat.ok());
  ASSERT_TRUE(steep.ok());
  // Steeper tails collapse more items onto support 1.
  EXPECT_LT(steep->num_groups(), flat->num_groups());
}

TEST(ZipfProfileTest, GeneratesRealizableDatabase) {
  Rng rng(8);
  auto profile = MakeZipfProfile(100, 400, 1.2, 0.4);
  ASSERT_TRUE(profile.ok());
  auto db = GenerateDatabase(*profile, &rng);
  ASSERT_TRUE(db.ok());
  auto table = FrequencyTable::Compute(*db);
  ASSERT_TRUE(table.ok());
  std::vector<SupportCount> expected = profile->ItemSupports();
  for (ItemId x = 0; x < db->num_items(); ++x) {
    EXPECT_EQ(table->support(x), expected[x]);
  }
}

// ------------------------------------------------------- Benchmark profiles

TEST(BenchmarkProfilesTest, AllSpecsPresentAndNamed) {
  const auto& specs = AllBenchmarkSpecs();
  ASSERT_EQ(specs.size(), 6u);
  EXPECT_EQ(specs[0].name, "CONNECT");
  EXPECT_EQ(specs[3].name, "RETAIL");
  EXPECT_EQ(GetBenchmarkSpec(Benchmark::kChess).num_items, 75u);
  auto by_name = BenchmarkByName("retail");
  ASSERT_TRUE(by_name.ok());
  EXPECT_EQ(*by_name, Benchmark::kRetail);
  EXPECT_TRUE(BenchmarkByName("NOPE").status().IsNotFound());
}

class BenchmarkProfileShapeTest
    : public ::testing::TestWithParam<Benchmark> {};

TEST_P(BenchmarkProfileShapeTest, MatchesPublishedFigure9Counts) {
  Rng rng(2026);
  const BenchmarkSpec& spec = GetBenchmarkSpec(GetParam());
  auto profile = MakeBenchmarkProfile(GetParam(), &rng);
  ASSERT_TRUE(profile.ok());

  // Hard structural targets: exact item/transaction/group/singleton counts.
  EXPECT_EQ(profile->num_items(), spec.num_items);
  EXPECT_EQ(profile->num_transactions(), spec.num_transactions);
  EXPECT_EQ(profile->num_groups(), spec.num_groups);
  FrequencyGroups fg = profile->ToFrequencyGroups();
  EXPECT_EQ(fg.num_groups(), spec.num_groups);
  EXPECT_EQ(fg.num_singleton_groups(), spec.num_singleton_groups);

  // Soft calibration targets: gap statistics in the right ballpark.
  Summary gaps = fg.GapSummary();
  EXPECT_NEAR(gaps.max, spec.max_gap, spec.max_gap * 0.5 + 1e-9);
  EXPECT_LT(gaps.min,
            spec.median_gap * 1.5 +
                1.0 / static_cast<double>(spec.num_transactions));
  EXPECT_GT(gaps.median, 0.0);
  // Median within a factor of ~3 of the published value.
  EXPECT_LT(gaps.median, spec.median_gap * 3.0 + 3.0 / spec.num_transactions);
  // Mean gap larger than median gap (the skew the paper highlights),
  // except in degenerate cases.
  if (spec.mean_gap > 2.0 * spec.median_gap) {
    EXPECT_GT(gaps.mean, gaps.median);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, BenchmarkProfileShapeTest,
    ::testing::Values(Benchmark::kConnect, Benchmark::kPumsb,
                      Benchmark::kAccidents, Benchmark::kRetail,
                      Benchmark::kMushroom, Benchmark::kChess),
    [](const ::testing::TestParamInfo<Benchmark>& info) {
      return GetBenchmarkSpec(info.param).name;
    });

TEST(BenchmarkProfilesTest, ScaledDatabaseGeneration) {
  Rng rng(1);
  // CHESS at 30%: small enough to materialize quickly in a unit test.
  auto db = MakeBenchmarkDatabase(Benchmark::kChess, &rng, 0.3);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->num_items(), 75u);
  auto table = FrequencyTable::Compute(*db);
  ASSERT_TRUE(table.ok());
  FrequencyGroups fg = FrequencyGroups::Build(*table);
  EXPECT_EQ(fg.num_groups(), 73u);
}

TEST(BenchmarkProfilesTest, DifferentSeedsDifferentProfiles) {
  Rng rng1(1), rng2(2);
  auto p1 = MakeBenchmarkProfile(Benchmark::kMushroom, &rng1);
  auto p2 = MakeBenchmarkProfile(Benchmark::kMushroom, &rng2);
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p2.ok());
  bool differs = false;
  for (size_t g = 0; g < p1->num_groups(); ++g) {
    if (p1->groups()[g].support != p2->groups()[g].support) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(BenchmarkProfilesTest, SameSeedSameProfile) {
  Rng rng1(5), rng2(5);
  auto p1 = MakeBenchmarkProfile(Benchmark::kChess, &rng1);
  auto p2 = MakeBenchmarkProfile(Benchmark::kChess, &rng2);
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p2.ok());
  for (size_t g = 0; g < p1->num_groups(); ++g) {
    EXPECT_EQ(p1->groups()[g].support, p2->groups()[g].support);
    EXPECT_EQ(p1->groups()[g].size, p2->groups()[g].size);
  }
}

// ------------------------------------------------------------------- Quest

TEST(QuestTest, GeneratesRequestedShape) {
  QuestParams params;
  params.num_items = 100;
  params.num_transactions = 500;
  params.avg_txn_size = 8.0;
  params.seed = 77;
  auto db = GenerateQuestDatabase(params);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->num_items(), 100u);
  EXPECT_EQ(db->num_transactions(), 500u);
  double avg = static_cast<double>(db->TotalSize()) / 500.0;
  EXPECT_GT(avg, 2.0);
  EXPECT_LT(avg, 20.0);
}

TEST(QuestTest, DeterministicBySeed) {
  QuestParams params;
  params.num_items = 50;
  params.num_transactions = 100;
  params.seed = 123;
  auto a = GenerateQuestDatabase(params);
  auto b = GenerateQuestDatabase(params);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (size_t t = 0; t < a->num_transactions(); ++t) {
    EXPECT_EQ(Row(*a, t), Row(*b, t));
  }
}

TEST(QuestTest, ValidatesParameters) {
  QuestParams params;
  params.num_items = 0;
  EXPECT_TRUE(GenerateQuestDatabase(params).status().IsInvalidArgument());
  params = QuestParams{};
  params.avg_txn_size = 0.5;
  EXPECT_TRUE(GenerateQuestDatabase(params).status().IsInvalidArgument());
  params = QuestParams{};
  params.num_patterns = 0;
  EXPECT_TRUE(GenerateQuestDatabase(params).status().IsInvalidArgument());
  params = QuestParams{};
  params.correlation = 1.5;
  EXPECT_TRUE(GenerateQuestDatabase(params).status().IsInvalidArgument());
  params = QuestParams{};
  params.corruption_mean = 1.0;
  EXPECT_TRUE(GenerateQuestDatabase(params).status().IsInvalidArgument());
}

TEST(QuestTest, SkewedItemPopularity) {
  // Zipf pattern weights should produce visibly skewed item frequencies.
  QuestParams params;
  params.num_items = 200;
  params.num_transactions = 2000;
  params.seed = 5;
  auto db = GenerateQuestDatabase(params);
  ASSERT_TRUE(db.ok());
  auto table = FrequencyTable::Compute(*db);
  ASSERT_TRUE(table.ok());
  std::vector<SupportCount> supports = table->supports();
  std::sort(supports.begin(), supports.end());
  // Top item at least 5x the median item.
  EXPECT_GT(supports.back(),
            5 * std::max<SupportCount>(1, supports[supports.size() / 2]));
}

}  // namespace
}  // namespace anonsafe
