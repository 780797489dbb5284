#include <gtest/gtest.h>

#include "belief/chain.h"
#include "data/frequency.h"
#include "exact_oracle.h"

namespace anonsafe {
namespace {

ChainSpec PaperFigure4a() {
  // Fig. 4(a): two frequency groups n=(5,3); exclusive e=(3,2); shared
  // s=(3). Expected cracks 74/45, O-estimate 197/120 (Section 5.2).
  ChainSpec spec;
  spec.n = {5, 3};
  spec.e = {3, 2};
  spec.s = {3};
  return spec;
}

// -------------------------------------------------------------- Validation

TEST(ChainValidationTest, PaperExampleIsValid) {
  EXPECT_TRUE(ValidateChain(PaperFigure4a()).ok());
  EXPECT_EQ(PaperFigure4a().num_items(), 8u);
  EXPECT_EQ(PaperFigure4a().length(), 2u);
}

TEST(ChainValidationTest, RejectsMalformedSpecs) {
  ChainSpec empty;
  EXPECT_TRUE(ValidateChain(empty).IsInvalidArgument());

  ChainSpec wrong_lengths;
  wrong_lengths.n = {5, 3};
  wrong_lengths.e = {3};
  wrong_lengths.s = {3};
  EXPECT_TRUE(ValidateChain(wrong_lengths).IsInvalidArgument());

  ChainSpec zero_group;
  zero_group.n = {0, 3};
  zero_group.e = {0, 2};
  zero_group.s = {1};
  EXPECT_TRUE(ValidateChain(zero_group).IsInvalidArgument());

  ChainSpec zero_shared;
  zero_shared.n = {2, 2};
  zero_shared.e = {2, 2};
  zero_shared.s = {0};
  EXPECT_TRUE(ValidateChain(zero_shared).IsInvalidArgument());

  ChainSpec unbalanced;
  unbalanced.n = {5, 3};
  unbalanced.e = {3, 2};
  unbalanced.s = {5};
  EXPECT_TRUE(ValidateChain(unbalanced).IsInvalidArgument());

  // Flow infeasible: group 1 has fewer anon items than exclusive items.
  ChainSpec infeasible;
  infeasible.n = {2, 6};
  infeasible.e = {4, 2};
  infeasible.s = {2};
  EXPECT_TRUE(ValidateChain(infeasible).IsInvalidArgument());
}

TEST(ChainValidationTest, SingleGroupChain) {
  ChainSpec spec;
  spec.n = {4};
  spec.e = {4};
  spec.s = {};
  EXPECT_TRUE(ValidateChain(spec).ok());
  auto exact = ChainExactExpectedCracks(spec);
  ASSERT_TRUE(exact.ok());
  EXPECT_DOUBLE_EQ(*exact, 1.0);  // one complete group: Lemma 1
}

// ------------------------------------------------------------ Lemma 5 and 6

TEST(ChainFormulaTest, PaperExampleExactValue) {
  auto exact = ChainExactExpectedCracks(PaperFigure4a());
  ASSERT_TRUE(exact.ok());
  EXPECT_NEAR(*exact, 74.0 / 45.0, 1e-12);
}

TEST(ChainFormulaTest, PaperExampleOEstimate) {
  auto oe = ChainOEstimate(PaperFigure4a());
  ASSERT_TRUE(oe.ok());
  EXPECT_NEAR(*oe, 197.0 / 120.0, 1e-12);
}

TEST(ChainFormulaTest, PaperExampleRelativeError) {
  auto err = ChainOEstimateRelativeError(PaperFigure4a());
  ASSERT_TRUE(err.ok());
  EXPECT_NEAR(*err, (74.0 / 45.0 - 197.0 / 120.0) / (74.0 / 45.0), 1e-12);
  EXPECT_GT(*err, 0.0);  // OE slightly underestimates on this chain
}

TEST(ChainFormulaTest, Section52TableRow1) {
  // First row of the Section 5.2 table: n=(20,30,20), e=(10,10,10),
  // s=(20,20) -> percentage error 1.54%.
  ChainSpec spec;
  spec.n = {20, 30, 20};
  spec.e = {10, 10, 10};
  spec.s = {20, 20};
  auto err = ChainOEstimateRelativeError(spec);
  ASSERT_TRUE(err.ok());
  EXPECT_NEAR(*err * 100.0, 1.54, 0.02);
}

TEST(ChainFormulaTest, PurelyExclusiveChainEqualsGroupSum) {
  // No shared groups via s_i >= 1 is required, so emulate near-exclusive:
  // tiny shared groups contribute little.
  ChainSpec spec;
  spec.n = {10, 10};
  spec.e = {9, 10};
  spec.s = {1};
  auto exact = ChainExactExpectedCracks(spec);
  ASSERT_TRUE(exact.ok());
  // Shared item must map to group 1 (L_1 = 10-9 = 1, R_1 = 0):
  // E = 9/10 + 10/10 + 1*1/(1*10) + 0 = 2.0.
  EXPECT_NEAR(*exact, 2.0, 1e-12);
}

// ----------------------------------------------- Realization and detection

TEST(ChainRealizeTest, RealizationMatchesSpecStructure) {
  ChainSpec spec = PaperFigure4a();
  auto realized = RealizeChain(spec, 100);
  ASSERT_TRUE(realized.ok());
  ASSERT_EQ(realized->item_supports.size(), 8u);

  auto table = FrequencyTable::FromSupports(realized->item_supports,
                                            realized->num_transactions);
  ASSERT_TRUE(table.ok());
  FrequencyGroups fg = FrequencyGroups::Build(*table);
  EXPECT_EQ(fg.num_groups(), 2u);
  EXPECT_EQ(fg.group_size(0), 5u);
  EXPECT_EQ(fg.group_size(1), 3u);

  // Belief is compliant.
  auto alpha = realized->belief.ComplianceFraction(*table);
  ASSERT_TRUE(alpha.ok());
  EXPECT_DOUBLE_EQ(*alpha, 1.0);

  // Detection recovers the spec.
  auto detected = DetectChain(fg, realized->belief);
  ASSERT_TRUE(detected.ok());
  EXPECT_EQ(detected->n, spec.n);
  EXPECT_EQ(detected->e, spec.e);
  EXPECT_EQ(detected->s, spec.s);
}

TEST(ChainRealizeTest, NeedsEnoughTransactions) {
  EXPECT_TRUE(RealizeChain(PaperFigure4a(), 4).status().IsInvalidArgument());
}

TEST(ChainDetectTest, NonChainIsRejected) {
  // An item spanning three groups breaks the chain property.
  auto table = FrequencyTable::FromSupports({10, 20, 30}, 100);
  ASSERT_TRUE(table.ok());
  FrequencyGroups fg = FrequencyGroups::Build(*table);
  auto wide = BeliefFunction::Create(
      {{0.0, 1.0}, {0.15, 0.25}, {0.25, 0.35}});
  ASSERT_TRUE(wide.ok());
  EXPECT_TRUE(DetectChain(fg, *wide).status().IsNotFound());
}

TEST(ChainDetectTest, DeadItemRejected) {
  auto table = FrequencyTable::FromSupports({10, 20}, 100);
  ASSERT_TRUE(table.ok());
  FrequencyGroups fg = FrequencyGroups::Build(*table);
  auto beta = BeliefFunction::Create({{0.05, 0.15}, {0.5, 0.6}});
  ASSERT_TRUE(beta.ok());
  EXPECT_TRUE(DetectChain(fg, *beta).status().IsNotFound());
}

class LongChainRoundTripTest : public ::testing::TestWithParam<size_t> {};

TEST_P(LongChainRoundTripTest, RealizeDetectAndClosedFormsAgree) {
  // Chains of length 4-8: realization -> detection round-trips the spec,
  // and the generic O-estimate equals the Section 5.2 closed form.
  const size_t k = GetParam();
  ChainSpec spec;
  spec.n.resize(k);
  spec.e.resize(k);
  spec.s.resize(k - 1);
  // A deterministic feasible pattern: L_i = 2, R_i = 1 throughout.
  size_t prev_r = 0;
  for (size_t i = 0; i < k; ++i) {
    size_t l = (i + 1 < k) ? 2 : 0;
    size_t r = (i + 1 < k) ? 1 : 0;
    spec.e[i] = 1 + (i % 2);
    spec.n[i] = spec.e[i] + prev_r + l;
    if (i + 1 < k) spec.s[i] = l + r;
    prev_r = r;
  }
  ASSERT_TRUE(ValidateChain(spec).ok());

  auto realized = RealizeChain(spec, 40 * k);
  ASSERT_TRUE(realized.ok());
  auto table = FrequencyTable::FromSupports(realized->item_supports,
                                            realized->num_transactions);
  ASSERT_TRUE(table.ok());
  FrequencyGroups fg = FrequencyGroups::Build(*table);
  ASSERT_EQ(fg.num_groups(), k);

  auto detected = DetectChain(fg, realized->belief);
  ASSERT_TRUE(detected.ok());
  EXPECT_EQ(detected->n, spec.n);
  EXPECT_EQ(detected->e, spec.e);
  EXPECT_EQ(detected->s, spec.s);

  // Closed-form OE vs the spec's formula is checked indirectly via the
  // exact-vs-OE error being small and positive-ish on this family.
  auto exact = ChainExactExpectedCracks(spec);
  auto oe = ChainOEstimate(spec);
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(oe.ok());
  EXPECT_LE(*oe, *exact + 1e-9);
  EXPECT_GT(*oe, 0.5 * *exact);
}

INSTANTIATE_TEST_SUITE_P(Lengths, LongChainRoundTripTest,
                         ::testing::Values(4u, 5u, 6u, 7u, 8u));

// ----------------------------- Cross-validation against the direct method

class ChainVsDirectTest
    : public ::testing::TestWithParam<std::tuple<int, int, int, int, int>> {
};

TEST_P(ChainVsDirectTest, Lemma5MatchesPermanentExpectation) {
  auto [n1, n2, e1, e2, s1] = GetParam();
  ChainSpec spec;
  spec.n = {static_cast<size_t>(n1), static_cast<size_t>(n2)};
  spec.e = {static_cast<size_t>(e1), static_cast<size_t>(e2)};
  spec.s = {static_cast<size_t>(s1)};
  ASSERT_TRUE(ValidateChain(spec).ok());

  auto realized = RealizeChain(spec, 50);
  ASSERT_TRUE(realized.ok());
  auto table = FrequencyTable::FromSupports(realized->item_supports,
                                            realized->num_transactions);
  ASSERT_TRUE(table.ok());
  FrequencyGroups fg = FrequencyGroups::Build(*table);

  auto exact_formula = ChainExactExpectedCracks(spec);
  auto exact_direct = OracleExpectedCracks(fg, realized->belief);
  ASSERT_TRUE(exact_formula.ok());
  ASSERT_TRUE(exact_direct.ok()) << exact_direct.status();
  EXPECT_NEAR(*exact_formula, *exact_direct, 1e-6)
      << "n=(" << n1 << "," << n2 << ") e=(" << e1 << "," << e2
      << ") s=" << s1;
}

INSTANTIATE_TEST_SUITE_P(
    SmallChains, ChainVsDirectTest,
    ::testing::Values(std::make_tuple(5, 3, 3, 2, 3),   // paper Fig. 4(a)
                      std::make_tuple(2, 2, 1, 1, 2),
                      std::make_tuple(4, 4, 2, 2, 4),
                      std::make_tuple(3, 5, 1, 3, 4),
                      std::make_tuple(6, 2, 5, 1, 2),
                      std::make_tuple(2, 6, 2, 2, 4),
                      std::make_tuple(7, 3, 6, 2, 2)));

TEST(ChainVsDirectTest, Length3ChainMatchesPermanent) {
  ChainSpec spec;
  spec.n = {4, 5, 3};
  spec.e = {2, 2, 1};
  spec.s = {3, 4};
  ASSERT_TRUE(ValidateChain(spec).ok());
  auto realized = RealizeChain(spec, 60);
  ASSERT_TRUE(realized.ok());
  auto table = FrequencyTable::FromSupports(realized->item_supports,
                                            realized->num_transactions);
  ASSERT_TRUE(table.ok());
  FrequencyGroups fg = FrequencyGroups::Build(*table);
  auto formula = ChainExactExpectedCracks(spec);
  auto direct = OracleExpectedCracks(fg, realized->belief);
  ASSERT_TRUE(formula.ok());
  ASSERT_TRUE(direct.ok()) << direct.status();
  EXPECT_NEAR(*formula, *direct, 1e-6);
}

}  // namespace
}  // namespace anonsafe
