#include <gtest/gtest.h>

#include <cmath>

#include "belief/builders.h"
#include "data/frequency.h"
#include "graph/bipartite_graph.h"
#include "graph/hopcroft_karp.h"
#include "graph/matching_sampler.h"
#include "util/rng.h"
#include "util/stats.h"
#include "exact_oracle.h"

namespace anonsafe {
namespace {

// ------------------------------------------------------------------ Seeds

TEST(SamplerTest, CompliantBeliefSeedsWithIdentity) {
  auto table = FrequencyTable::FromSupports({5, 4, 5, 5, 3, 5}, 10);
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  auto beta = MakeCompliantIntervalBelief(*table, 0.05);
  ASSERT_TRUE(beta.ok());
  SamplerOptions opt;
  auto sampler = MatchingSampler::Create(groups, *beta, opt);
  ASSERT_TRUE(sampler.ok());
  EXPECT_TRUE(sampler->seed_is_perfect());
  EXPECT_TRUE(sampler->CurrentStateConsistent());
}

TEST(SamplerTest, NonCompliantBeliefUsesGreedySeed) {
  auto table = FrequencyTable::FromSupports({10, 20, 30}, 100);
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  // Item 0 guesses wrong (onto group of item 1), others exact: a perfect
  // matching still exists? No: items 0 and 1 both only like anon 1.
  auto beta = BeliefFunction::Create(
      {{0.18, 0.22}, {0.18, 0.22}, {0.28, 0.32}});
  ASSERT_TRUE(beta.ok());
  SamplerOptions opt;
  auto sampler = MatchingSampler::Create(groups, *beta, opt);
  ASSERT_TRUE(sampler.ok());
  EXPECT_FALSE(sampler->seed_is_perfect());
  EXPECT_EQ(sampler->seed_size(), 2u);
  EXPECT_TRUE(sampler->CurrentStateConsistent());
}

TEST(SamplerTest, EmptyDomainFails) {
  auto table = FrequencyTable::FromSupports({}, 10);
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  auto beta = BeliefFunction::Create({});
  ASSERT_TRUE(beta.ok());
  SamplerOptions opt;
  EXPECT_TRUE(MatchingSampler::Create(groups, *beta, opt)
                  .status().IsInvalidArgument());
}

// ----------------------------------------------------- Statistical checks

TEST(SamplerTest, SamplesStayConsistentMatchings) {
  auto table = FrequencyTable::FromSupports({2, 3, 5, 5, 7, 7, 7}, 10);
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  auto beta = MakeCompliantIntervalBelief(*table, 0.21);
  ASSERT_TRUE(beta.ok());
  SamplerOptions opt;
  opt.num_samples = 50;
  opt.burn_in_sweeps = 20;
  opt.thinning_sweeps = 3;
  auto sampler = MatchingSampler::Create(groups, *beta, opt);
  ASSERT_TRUE(sampler.ok());
  std::vector<size_t> counts = sampler->SampleCrackCounts();
  EXPECT_EQ(counts.size(), 50u);
  EXPECT_TRUE(sampler->CurrentStateConsistent());
  for (size_t c : counts) EXPECT_LE(c, 7u);
}

TEST(SamplerTest, IgnorantBeliefMeanNearOne) {
  // Lemma 1: uniform perfect matchings of the complete graph crack one
  // item in expectation.
  std::vector<SupportCount> supports(12);
  for (size_t i = 0; i < 12; ++i) supports[i] = i + 1;
  auto table = FrequencyTable::FromSupports(supports, 50);
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  SamplerOptions opt;
  opt.num_samples = 2000;
  opt.burn_in_sweeps = 50;
  opt.thinning_sweeps = 5;
  opt.exec.seed = 99;
  auto sampler =
      MatchingSampler::Create(groups, MakeIgnorantBelief(12), opt);
  ASSERT_TRUE(sampler.ok());
  std::vector<size_t> counts = sampler->SampleCrackCounts();
  double mean = 0.0;
  for (size_t c : counts) mean += static_cast<double>(c);
  mean /= static_cast<double>(counts.size());
  EXPECT_NEAR(mean, 1.0, 0.15);
}

class SamplerVsExactTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SamplerVsExactTest, MatchesPermanentExpectation) {
  // Random compliant interval beliefs on small domains: the sampler's
  // mean crack count must approach the exact permanent-based expectation.
  Rng rng(GetParam());
  const size_t n = 5 + rng.UniformUint64(4);
  std::vector<SupportCount> supports(n);
  for (size_t i = 0; i < n; ++i) supports[i] = 1 + rng.UniformUint64(12);
  auto table = FrequencyTable::FromSupports(supports, 20);
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  auto beta =
      MakeCompliantIntervalBelief(*table, 0.05 + 0.2 * rng.UniformDouble());
  ASSERT_TRUE(beta.ok());

  auto exact = OracleExpectedCracks(groups, *beta);
  ASSERT_TRUE(exact.ok());

  SamplerOptions opt;
  opt.num_samples = 3000;
  opt.burn_in_sweeps = 60;
  opt.thinning_sweeps = 4;
  opt.exec.seed = GetParam() * 31 + 1;
  auto sampler = MatchingSampler::Create(groups, *beta, opt);
  ASSERT_TRUE(sampler.ok());
  std::vector<size_t> counts = sampler->SampleCrackCounts();
  double mean = 0.0;
  for (size_t c : counts) mean += static_cast<double>(c);
  mean /= static_cast<double>(counts.size());

  EXPECT_NEAR(mean, *exact, 0.25 + 0.1 * *exact) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SamplerVsExactTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

TEST(SamplerTest, InterestMaskRestrictsCounts) {
  auto table = FrequencyTable::FromSupports({5, 5, 5, 5}, 10);
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  auto beta = MakePointValuedBelief(*table);
  ASSERT_TRUE(beta.ok());
  SamplerOptions opt;
  opt.num_samples = 200;
  auto sampler = MatchingSampler::Create(groups, *beta, opt);
  ASSERT_TRUE(sampler.ok());
  std::vector<bool> nobody(4, false);
  auto counts = sampler->SampleCrackCounts(nobody);
  ASSERT_TRUE(counts.ok());
  for (size_t c : *counts) EXPECT_EQ(c, 0u);
  std::vector<bool> wrong_size(3, true);
  EXPECT_TRUE(sampler->SampleCrackCounts(wrong_size)
                  .status().IsInvalidArgument());
}

TEST(SamplerTest, DeterministicAcrossRunsWithSameSeed) {
  auto table = FrequencyTable::FromSupports({2, 4, 6, 8}, 10);
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  auto beta = MakeCompliantIntervalBelief(*table, 0.3);
  ASSERT_TRUE(beta.ok());
  SamplerOptions opt;
  opt.num_samples = 100;
  opt.exec.seed = 12345;
  auto s1 = MatchingSampler::Create(groups, *beta, opt);
  auto s2 = MatchingSampler::Create(groups, *beta, opt);
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(s1->SampleCrackCounts(), s2->SampleCrackCounts());
}

TEST(SamplerTest, DistributionMatchesEnumerationOnTinyGraph) {
  // Beyond the mean: the sampled crack-count *distribution* must match
  // the exact distribution over all consistent matchings (total
  // variation distance small). Two groups of sizes 2 and 3, fully
  // point-valued: matchings factorize as S2 x S3.
  auto table = FrequencyTable::FromSupports({3, 3, 7, 7, 7}, 10);
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  auto beta = MakePointValuedBelief(*table);
  ASSERT_TRUE(beta.ok());

  auto exact = OracleCrackDistribution(groups, *beta);
  ASSERT_TRUE(exact.ok());
  ASSERT_EQ(exact->num_matchings, 12u);  // 2! * 3!

  SamplerOptions opt;
  opt.num_samples = 6000;
  opt.burn_in_sweeps = 50;
  opt.thinning_sweeps = 3;
  opt.exec.seed = 77;
  auto sampler = MatchingSampler::Create(groups, *beta, opt);
  ASSERT_TRUE(sampler.ok());
  std::vector<size_t> counts = sampler->SampleCrackCounts();
  std::vector<double> empirical(6, 0.0);
  for (size_t c : counts) empirical[c] += 1.0;
  for (double& p : empirical) p /= static_cast<double>(counts.size());

  double tv = 0.0;
  for (size_t c = 0; c < 6; ++c) {
    tv += std::abs(empirical[c] - exact->probability[c]);
  }
  tv /= 2.0;
  EXPECT_LT(tv, 0.04) << "total variation distance too large";
}

class GreedySeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GreedySeedTest, GreedyIntervalSeedIsMaximum) {
  // The sampler's exchange-greedy seed for interval structures must match
  // the Hopcroft-Karp maximum on the explicit graph — including under
  // non-compliant beliefs where the matching is not perfect.
  Rng rng(GetParam() * 271 + 9);
  const size_t n = 4 + rng.UniformUint64(20);
  std::vector<SupportCount> supports(n);
  for (size_t i = 0; i < n; ++i) supports[i] = 1 + rng.UniformUint64(30);
  auto table = FrequencyTable::FromSupports(supports, 40);
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  // Wild intervals: arbitrary, frequently non-compliant.
  std::vector<BeliefInterval> intervals(n);
  for (size_t x = 0; x < n; ++x) {
    double a = rng.UniformDouble(), b = rng.UniformDouble();
    intervals[x] = {std::min(a, b), std::max(a, b)};
  }
  auto beta = BeliefFunction::Create(std::move(intervals));
  ASSERT_TRUE(beta.ok());

  SamplerOptions opt;
  opt.num_samples = 1;
  opt.burn_in_sweeps = 0;
  opt.burn_in_scale = 0.0;
  auto sampler = MatchingSampler::Create(groups, *beta, opt);
  ASSERT_TRUE(sampler.ok());

  auto graph = BipartiteGraph::Build(groups, *beta);
  ASSERT_TRUE(graph.ok());
  Matching hk = HopcroftKarp(*graph);
  EXPECT_EQ(sampler->seed_size(), hk.size) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Seeds, GreedySeedTest,
                         ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace anonsafe
