#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "anonymize/anonymizer.h"
#include "belief/builders.h"
#include "belief/chain.h"
#include "core/oestimate.h"
#include "data/frequency.h"
#include "datagen/profile.h"
#include "graph/bipartite_graph.h"
#include "graph/consistency.h"
#include "graph/hopcroft_karp.h"
#include "graph/permanent.h"
#include "util/rng.h"
#include "exact_oracle.h"
#include "test_rows.h"

namespace anonsafe {
namespace {

/// Random supports with repeats (interesting group structure).
std::vector<SupportCount> RandomSupports(size_t n, size_t m, Rng* rng) {
  std::vector<SupportCount> supports(n);
  for (size_t i = 0; i < n; ++i) {
    supports[i] = 1 + rng->UniformUint64(m);
  }
  return supports;
}

/// Random compliant interval belief: per-item width in [0, spread].
Result<BeliefFunction> RandomCompliantBelief(const FrequencyTable& table,
                                             double spread, Rng* rng) {
  std::vector<BeliefInterval> intervals(table.num_items());
  for (ItemId x = 0; x < table.num_items(); ++x) {
    double f = table.frequency(x);
    double below = spread * rng->UniformDouble();
    double above = spread * rng->UniformDouble();
    intervals[x] = {std::max(0.0, f - below), std::min(1.0, f + above)};
  }
  return BeliefFunction::Create(std::move(intervals));
}

// ===================================================================
// Property: OE monotonicity in the belief refinement order (Lemma 8).
// ===================================================================

class Lemma8PropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Lemma8PropertyTest, WideningEveryIntervalNeverIncreasesOE) {
  Rng rng(GetParam());
  const size_t n = 5 + rng.UniformUint64(40);
  const size_t m = 100;
  auto table = FrequencyTable::FromSupports(RandomSupports(n, m, &rng), m);
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);

  auto narrow = RandomCompliantBelief(*table, 0.05, &rng);
  ASSERT_TRUE(narrow.ok());
  // Widen each interval by random non-negative amounts.
  std::vector<BeliefInterval> widened = narrow->intervals();
  for (auto& iv : widened) {
    iv.lo = std::max(0.0, iv.lo - 0.2 * rng.UniformDouble());
    iv.hi = std::min(1.0, iv.hi + 0.2 * rng.UniformDouble());
  }
  auto wide = BeliefFunction::Create(std::move(widened));
  ASSERT_TRUE(wide.ok());
  ASSERT_TRUE(narrow->Refines(*wide));

  OEstimateOptions opt;
  opt.propagate = false;  // Lemma 8 is stated for raw outdegrees
  auto oe_narrow = ComputeOEstimate(groups, *narrow, opt);
  auto oe_wide = ComputeOEstimate(groups, *wide, opt);
  ASSERT_TRUE(oe_narrow.ok());
  ASSERT_TRUE(oe_wide.ok());
  EXPECT_GE(oe_narrow->expected_cracks, oe_wide->expected_cracks - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lemma8PropertyTest,
                         ::testing::Range<uint64_t>(1, 21));

// ===================================================================
// Property: α-compliancy monotonicity (Lemma 10): removing items from
// the compliant set never increases the restricted OE.
// ===================================================================

class Lemma10PropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Lemma10PropertyTest, ShrinkingCompliantSetDecreasesOE) {
  Rng rng(GetParam() * 1009);
  const size_t n = 10 + rng.UniformUint64(30);
  const size_t m = 200;
  auto table = FrequencyTable::FromSupports(RandomSupports(n, m, &rng), m);
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  auto base = RandomCompliantBelief(*table, 0.1, &rng);
  ASSERT_TRUE(base.ok());

  // Nested masks: big ⊃ small.
  std::vector<size_t> order = rng.Permutation(n);
  size_t big_count = n / 2 + rng.UniformUint64(n / 2);
  size_t small_count = rng.UniformUint64(big_count + 1);
  std::vector<bool> big(n, false), small(n, false);
  for (size_t i = 0; i < big_count; ++i) big[order[i]] = true;
  for (size_t i = 0; i < small_count; ++i) small[order[i]] = true;

  OEstimateOptions opt;
  opt.propagate = false;
  auto oe_big =
      ComputeOEstimate(groups, *base, opt, nullptr, {.include = &big});
  auto oe_small =
      ComputeOEstimate(groups, *base, opt, nullptr, {.include = &small});
  ASSERT_TRUE(oe_big.ok());
  ASSERT_TRUE(oe_small.ok());
  EXPECT_LE(oe_small->expected_cracks, oe_big->expected_cracks + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lemma10PropertyTest,
                         ::testing::Range<uint64_t>(1, 21));

// ===================================================================
// Property: risk metrics are invariant under the anonymization
// permutation (the identity-surrogate convention is WLOG).
// ===================================================================

class PermutationInvarianceTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(PermutationInvarianceTest, FrequencyProfileUnchanged) {
  Rng rng(GetParam() * 31 + 7);
  auto profile = FrequencyProfile::Create(
      100, {{5, 3}, {20, 2}, {60, 3}, {90, 1}});
  ASSERT_TRUE(profile.ok());
  auto db = GenerateDatabase(*profile, &rng);
  ASSERT_TRUE(db.ok());
  Anonymizer mapping = Anonymizer::Random(db->num_items(), &rng);
  auto anon_db = mapping.AnonymizeDatabase(*db);
  ASSERT_TRUE(anon_db.ok());

  auto orig = FrequencyTable::Compute(*db);
  auto anon = FrequencyTable::Compute(*anon_db);
  ASSERT_TRUE(orig.ok());
  ASSERT_TRUE(anon.ok());
  FrequencyGroups go = FrequencyGroups::Build(*orig);
  FrequencyGroups ga = FrequencyGroups::Build(*anon);

  // Identical group structure: sizes, supports, gaps.
  ASSERT_EQ(go.num_groups(), ga.num_groups());
  for (size_t g = 0; g < go.num_groups(); ++g) {
    EXPECT_EQ(go.group_support(g), ga.group_support(g));
    EXPECT_EQ(go.group_size(g), ga.group_size(g));
  }
  EXPECT_EQ(go.MedianGap(), ga.MedianGap());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PermutationInvarianceTest,
                         ::testing::Range<uint64_t>(1, 11));

// ===================================================================
// Property: propagation is sound — it never forces a pair that is
// absent from every perfect matching, and on compliant beliefs every
// forced pair is a certain crack. Verified against enumeration.
// ===================================================================

class PropagationSoundnessTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(PropagationSoundnessTest, ForcedCountMatchesCertainCracks) {
  Rng rng(GetParam() * 977 + 5);
  const size_t n = 3 + rng.UniformUint64(5);
  const size_t m = 30;
  auto table = FrequencyTable::FromSupports(RandomSupports(n, m, &rng), m);
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  auto beta = RandomCompliantBelief(*table, 0.15, &rng);
  ASSERT_TRUE(beta.ok());

  auto cs = ConsistencyStructure::Build(groups, *beta);
  ASSERT_TRUE(cs.ok());
  auto stats = cs->PropagateDegreeOne();
  ASSERT_FALSE(stats.contradiction);  // compliant => perfect matching

  auto dist = OracleCrackDistribution(groups, *beta);
  ASSERT_TRUE(dist.ok());
  // Count items cracked in EVERY perfect matching: under compliance a
  // forced item is always cracked, so forced <= certain cracks. The
  // minimum crack count over matchings bounds the certain cracks.
  size_t min_cracks = 0;
  for (size_t c = 0; c < dist->probability.size(); ++c) {
    if (dist->probability[c] > 0.0) {
      min_cracks = c;
      break;
    }
  }
  EXPECT_LE(stats.forced_pairs, min_cracks)
      << "propagation forced more pairs than the least-cracked matching";
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropagationSoundnessTest,
                         ::testing::Range<uint64_t>(1, 26));

// ===================================================================
// Property: the compressed ConsistencyStructure and the explicit
// BipartiteGraph agree on every outdegree.
// ===================================================================

class RepresentationAgreementTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RepresentationAgreementTest, OutdegreesAgree) {
  Rng rng(GetParam() * 13 + 3);
  const size_t n = 5 + rng.UniformUint64(60);
  const size_t m = 500;
  auto table = FrequencyTable::FromSupports(RandomSupports(n, m, &rng), m);
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  // Mix of compliant and wild intervals.
  std::vector<BeliefInterval> intervals(n);
  for (size_t x = 0; x < n; ++x) {
    double a = rng.UniformDouble(), b = rng.UniformDouble();
    intervals[x] = {std::min(a, b), std::max(a, b)};
  }
  auto beta = BeliefFunction::Create(std::move(intervals));
  ASSERT_TRUE(beta.ok());

  auto cs = ConsistencyStructure::Build(groups, *beta);
  auto g = BipartiteGraph::Build(groups, *beta);
  ASSERT_TRUE(cs.ok());
  ASSERT_TRUE(g.ok());
  for (ItemId x = 0; x < n; ++x) {
    EXPECT_EQ(cs->outdegree(x), g->item_outdegree(x)) << "item " << x;
  }

  // And OE without propagation equals the literal Figure 5 sum.
  OEstimateOptions opt;
  opt.propagate = false;
  auto oe = ComputeOEstimate(groups, *beta, opt);
  ASSERT_TRUE(oe.ok());
  double manual = 0.0;
  for (ItemId x = 0; x < n; ++x) {
    if (g->item_outdegree(x) > 0) {
      manual += 1.0 / static_cast<double>(g->item_outdegree(x));
    }
  }
  EXPECT_NEAR(oe->expected_cracks, manual, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RepresentationAgreementTest,
                         ::testing::Range<uint64_t>(1, 16));

// ===================================================================
// Property: on random chains, Lemma 6 equals the permanent-based
// direct method, and the OE relative error stays small (the Section
// 5.2 claim).
// ===================================================================

class RandomChainPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomChainPropertyTest, Lemma6MatchesDirectMethod) {
  Rng rng(GetParam() * 37);
  // Random feasible chain of length 2-3 with <= 12 items (permanent-safe).
  const size_t k = 2 + rng.UniformUint64(2);
  ChainSpec spec;
  spec.n.resize(k);
  spec.e.resize(k);
  spec.s.resize(k - 1);
  // Build by choosing flows first so feasibility is guaranteed:
  // L_i >= 0, R_i >= 0, n_i = e_i + R_{i-1} + L_i, s_i = L_i + R_i >= 1.
  size_t total = 0;
  size_t prev_r = 0;
  for (size_t i = 0; i < k; ++i) {
    size_t e = rng.UniformUint64(3);
    size_t l = (i + 1 < k) ? rng.UniformUint64(3) : 0;
    size_t r = (i + 1 < k) ? rng.UniformUint64(3) : 0;
    if (i + 1 < k && l + r == 0) l = 1;  // s_i >= 1
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
  if (total > 12) {
    GTEST_SKIP() << "chain too large for the permanent oracle";
  }
  ASSERT_TRUE(ValidateChain(spec).ok());

  auto realized = RealizeChain(spec, 60);
  ASSERT_TRUE(realized.ok());
  auto table = FrequencyTable::FromSupports(realized->item_supports,
                                            realized->num_transactions);
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);

  auto formula = ChainExactExpectedCracks(spec);
  auto direct = OracleExpectedCracks(groups, realized->belief);
  ASSERT_TRUE(formula.ok());
  ASSERT_TRUE(direct.ok()) << direct.status();
  EXPECT_NEAR(*formula, *direct, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomChainPropertyTest,
                         ::testing::Range<uint64_t>(1, 31));

// ===================================================================
// Property: profile generation realizes supports exactly, for random
// profiles (the substitution argument of DESIGN.md depends on this).
// ===================================================================

class ProfileRealizationTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ProfileRealizationTest, GeneratedSupportsEqualProfile) {
  Rng rng(GetParam() * 101);
  const size_t m = 50 + rng.UniformUint64(200);
  const size_t g = 2 + rng.UniformUint64(6);
  std::vector<ProfileGroup> groups;
  std::set<SupportCount> used;
  uint64_t occurrences = 0;
  for (size_t i = 0; i < g; ++i) {
    SupportCount s = 1 + rng.UniformUint64(m);
    if (used.count(s)) continue;
    used.insert(s);
    size_t size = 1 + rng.UniformUint64(5);
    groups.push_back({s, size});
    occurrences += s * size;
  }
  // Ensure coverage feasibility.
  if (occurrences < m) {
    SupportCount filler = m;
    if (!used.count(filler)) groups.push_back({filler, 1});
  }
  auto profile = FrequencyProfile::Create(m, groups);
  ASSERT_TRUE(profile.ok());

  auto db = GenerateDatabase(*profile, &rng);
  if (!db.ok()) {
    // Only legitimate failure: not enough occurrences to cover m.
    EXPECT_TRUE(db.status().IsInvalidArgument());
    return;
  }
  auto table = FrequencyTable::Compute(*db);
  ASSERT_TRUE(table.ok());
  std::vector<SupportCount> expected = profile->ItemSupports();
  for (ItemId x = 0; x < db->num_items(); ++x) {
    EXPECT_EQ(table->support(x), expected[x]);
  }
  for (const auto& txn : Rows(*db)) EXPECT_FALSE(txn.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProfileRealizationTest,
                         ::testing::Range<uint64_t>(1, 21));

// ===================================================================
// Property: Hopcroft–Karp finds a perfect matching iff the permanent
// is positive (small graphs).
// ===================================================================

class MatchingExistenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MatchingExistenceTest, HopcroftKarpAgreesWithPermanent) {
  Rng rng(GetParam() * 7919);
  const size_t n = 2 + rng.UniformUint64(7);
  std::vector<std::vector<ItemId>> adj(n);
  for (size_t a = 0; a < n; ++a) {
    for (size_t x = 0; x < n; ++x) {
      if (rng.Bernoulli(0.35)) adj[a].push_back(static_cast<ItemId>(x));
    }
  }
  auto g = BipartiteGraph::FromAdjacency(n, std::move(adj));
  ASSERT_TRUE(g.ok());
  Matching matching = HopcroftKarp(*g);
  auto permanent = CountPerfectMatchings(*g);
  ASSERT_TRUE(permanent.ok());
  EXPECT_EQ(matching.IsPerfect(), *permanent > 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatchingExistenceTest,
                         ::testing::Range<uint64_t>(1, 31));

}  // namespace
}  // namespace anonsafe
