#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "belief/builders.h"
#include "data/frequency.h"
#include "graph/bipartite_graph.h"
#include "graph/permanent.h"
#include "util/rng.h"
#include "exact_oracle.h"

namespace anonsafe {
namespace {

/// Brute-force permanent by iterating all permutations (n <= 8).
double BruteForcePermanent(const std::vector<uint64_t>& rows) {
  const size_t n = rows.size();
  std::vector<size_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  double total = 0.0;
  do {
    bool all = true;
    for (size_t i = 0; i < n && all; ++i) {
      all = (rows[i] >> perm[i]) & 1;
    }
    if (all) total += 1.0;
  } while (std::next_permutation(perm.begin(), perm.end()));
  return total;
}

// --------------------------------------------------------------- Permanent

TEST(PermanentTest, KnownSmallMatrices) {
  // Empty matrix: permanent 1 by convention.
  auto empty = PermanentRyser({});
  ASSERT_TRUE(empty.ok());
  EXPECT_DOUBLE_EQ(*empty, 1.0);

  // 1x1.
  auto one = PermanentRyser({1});
  ASSERT_TRUE(one.ok());
  EXPECT_DOUBLE_EQ(*one, 1.0);
  auto zero = PermanentRyser({0});
  ASSERT_TRUE(zero.ok());
  EXPECT_DOUBLE_EQ(*zero, 0.0);

  // All-ones n x n: permanent = n!.
  for (size_t n = 2; n <= 8; ++n) {
    std::vector<uint64_t> rows(n, (1ULL << n) - 1);
    auto p = PermanentRyser(rows);
    ASSERT_TRUE(p.ok());
    double factorial = 1.0;
    for (size_t i = 2; i <= n; ++i) factorial *= static_cast<double>(i);
    EXPECT_DOUBLE_EQ(*p, factorial) << "n=" << n;
  }

  // Identity: permanent 1.
  std::vector<uint64_t> id = {1, 2, 4, 8};
  auto pid = PermanentRyser(id);
  ASSERT_TRUE(pid.ok());
  EXPECT_DOUBLE_EQ(*pid, 1.0);

  // Classic 3x3 example: [[1,1,0],[1,1,1],[0,1,1]] -> 3.
  auto p3 = PermanentRyser({0b011, 0b111, 0b110});
  ASSERT_TRUE(p3.ok());
  EXPECT_DOUBLE_EQ(*p3, 3.0);
}

TEST(PermanentTest, MatchesBruteForceOnRandomMatrices) {
  Rng rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t n = 1 + rng.UniformUint64(7);
    std::vector<uint64_t> rows(n, 0);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        if (rng.Bernoulli(0.5)) rows[i] |= (1ULL << j);
      }
    }
    auto ryser = PermanentRyser(rows);
    ASSERT_TRUE(ryser.ok());
    EXPECT_DOUBLE_EQ(*ryser, BruteForcePermanent(rows)) << "trial " << trial;
  }
}

TEST(PermanentTest, SizeGuard) {
  std::vector<uint64_t> rows(kMaxPermanentN + 1, 1);
  EXPECT_TRUE(PermanentRyser(rows).status().IsOutOfRange());
}

TEST(PermanentTest, RejectsWideRows) {
  EXPECT_TRUE(PermanentRyser({0b100, 0b01}).status().IsInvalidArgument());
}

// ------------------------------------------------------------ Direct method

TEST(DirectMethodTest, CompleteGraphGivesLemma1) {
  // Ignorant belief => complete bipartite graph => E[X] = 1 (Lemma 1).
  for (size_t n : {2u, 3u, 5u, 8u}) {
    std::vector<SupportCount> supports(n);
    for (size_t i = 0; i < n; ++i) supports[i] = i + 1;
    auto table = FrequencyTable::FromSupports(supports, 100);
    ASSERT_TRUE(table.ok());
    FrequencyGroups groups = FrequencyGroups::Build(*table);
    auto direct = OracleExpectedCracks(groups, MakeIgnorantBelief(n));
    ASSERT_TRUE(direct.ok());
    EXPECT_NEAR(*direct, 1.0, 1e-9) << "n=" << n;
  }
}

TEST(DirectMethodTest, PointValuedGivesLemma3) {
  // Point-valued compliant belief => E[X] = number of groups (Lemma 3).
  auto table = FrequencyTable::FromSupports({5, 4, 5, 5, 3, 5}, 10);
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  auto beta = MakePointValuedBelief(*table);
  ASSERT_TRUE(beta.ok());
  auto direct = OracleExpectedCracks(groups, *beta);
  ASSERT_TRUE(direct.ok());
  EXPECT_NEAR(*direct, 3.0, 1e-9);
}

TEST(DirectMethodTest, NoPerfectMatchingFails) {
  auto table = FrequencyTable::FromSupports({10, 20}, 100);
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  auto beta = BeliefFunction::Create({{0.05, 0.15}, {0.05, 0.15}});
  ASSERT_TRUE(beta.ok());
  EXPECT_TRUE(OracleExpectedCracks(groups, *beta)
                  .status().IsFailedPrecondition());
}

// ------------------------------------------------- Enumeration cross-check

TEST(EnumerationTest, DistributionSumsToOneAndMatchesPermanent) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 2 + rng.UniformUint64(5);
    // Random supports with duplicates to get interesting group structure.
    std::vector<SupportCount> supports(n);
    for (size_t i = 0; i < n; ++i) supports[i] = 1 + rng.UniformUint64(4);
    auto table = FrequencyTable::FromSupports(supports, 10);
    ASSERT_TRUE(table.ok());
    FrequencyGroups groups = FrequencyGroups::Build(*table);
    auto beta = MakeCompliantIntervalBelief(*table,
                                            0.1 * rng.UniformDouble());
    ASSERT_TRUE(beta.ok());

    auto dist = OracleCrackDistribution(groups, *beta);
    ASSERT_TRUE(dist.ok());
    double total_p = 0.0;
    for (double p : dist->probability) total_p += p;
    EXPECT_NEAR(total_p, 1.0, 1e-9);
    EXPECT_GT(dist->num_matchings, 0u);

    auto direct = OracleExpectedCracks(groups, *beta);
    ASSERT_TRUE(direct.ok());
    EXPECT_NEAR(dist->expected, *direct, 1e-6) << "trial " << trial;
  }
}

TEST(EnumerationTest, MatchingCountEqualsPermanent) {
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 2 + rng.UniformUint64(5);
    std::vector<std::vector<ItemId>> adj(n);
    for (size_t a = 0; a < n; ++a) {
      for (size_t x = 0; x < n; ++x) {
        if (rng.Bernoulli(0.6)) adj[a].push_back(static_cast<ItemId>(x));
      }
    }
    auto g = BipartiteGraph::FromAdjacency(n, std::move(adj));
    ASSERT_TRUE(g.ok());
    auto perm = CountPerfectMatchings(*g);
    auto dist = EnumerateCrackDistribution(*g);
    ASSERT_TRUE(perm.ok());
    ASSERT_TRUE(dist.ok());
    EXPECT_NEAR(*perm, static_cast<double>(dist->num_matchings), 1e-6);
  }
}

TEST(EnumerationTest, AbortsOverBudget) {
  // Complete 8x8 graph has 40320 matchings; budget of 100 must abort.
  std::vector<std::vector<ItemId>> adj(8);
  for (size_t a = 0; a < 8; ++a) {
    for (size_t x = 0; x < 8; ++x) adj[a].push_back(static_cast<ItemId>(x));
  }
  auto g = BipartiteGraph::FromAdjacency(8, std::move(adj));
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE(EnumerateCrackDistribution(*g, 100).status().IsOutOfRange());
}

TEST(EnumerationTest, RejectsZeroMaxMatchings) {
  // A zero budget is a caller error, not an over-budget graph: it must
  // not surface as OutOfRange at the first matching.
  auto g = BipartiteGraph::FromAdjacency(2, {{0, 1}, {0, 1}});
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE(EnumerateCrackDistribution(*g, 0).status().IsInvalidArgument());
}

}  // namespace
}  // namespace anonsafe
