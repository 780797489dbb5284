#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "belief/builders.h"
#include "core/recipe.h"
#include "data/frequency.h"
#include "estimator/closed_forms.h"
#include "estimator/estimators.h"
#include "estimator/planner.h"
#include "exec/exec.h"
#include "graph/bipartite_graph.h"
#include "util/rng.h"
#include "exact_oracle.h"

namespace anonsafe {
namespace {

Result<FrequencyGroups> GroupsFromSupports(std::vector<SupportCount> s,
                                           size_t m) {
  ANONSAFE_ASSIGN_OR_RETURN(FrequencyTable t,
                            FrequencyTable::FromSupports(std::move(s), m));
  return FrequencyGroups::Build(t);
}

struct Instance {
  FrequencyTable table;
  FrequencyGroups groups;
  BeliefFunction belief;  // point-valued
};

Result<Instance> MakePointValuedInstance(std::vector<SupportCount> s,
                                         size_t m) {
  ANONSAFE_ASSIGN_OR_RETURN(FrequencyTable t,
                            FrequencyTable::FromSupports(std::move(s), m));
  FrequencyGroups g = FrequencyGroups::Build(t);
  ANONSAFE_ASSIGN_OR_RETURN(BeliefFunction b, MakePointValuedBelief(t));
  return Instance{std::move(t), std::move(g), std::move(b)};
}

/// Two frequency groups of two anons each, with one exclusive item per
/// group and two seam items spanning both — the smallest chain that is
/// neither complete nor singleton.
struct ChainFixture {
  FrequencyGroups groups;
  BeliefFunction belief;
};

Result<ChainFixture> MakeChain() {
  ANONSAFE_ASSIGN_OR_RETURN(FrequencyGroups groups,
                            GroupsFromSupports({10, 10, 20, 20}, 100));
  ANONSAFE_ASSIGN_OR_RETURN(
      BeliefFunction belief,
      BeliefFunction::Create({{0.05, 0.15},    // exclusive to group 0
                              {0.05, 0.25},    // seam
                              {0.05, 0.25},    // seam
                              {0.15, 0.25}})); // exclusive to group 1
  return ChainFixture{std::move(groups), std::move(belief)};
}

/// The unweighted adversary model the estimators consume, around a
/// fixture's belief.
adversary::AdversaryModel ModelOf(const BeliefFunction& belief) {
  return adversary::AdversaryModel{"interval", {}, belief, {}};
}

/// Twelve items over three groups forming ONE connected block that is
/// neither complete (two items have restricted intervals) nor a chain
/// (the middle items span all three groups): the planner must fall back
/// to the masked Ryser permanent or, beyond the cutoff, to an estimate.
Result<ChainFixture> MakeMessy() {
  std::vector<SupportCount> supports;
  for (SupportCount s : {10, 20, 30}) {
    for (int i = 0; i < 4; ++i) supports.push_back(s);
  }
  ANONSAFE_ASSIGN_OR_RETURN(
      FrequencyTable table,
      FrequencyTable::FromSupports(std::move(supports), 100));
  FrequencyGroups groups = FrequencyGroups::Build(table);
  std::vector<BeliefInterval> intervals(12, {0.1, 0.3});
  intervals[0] = {0.1, 0.1};
  intervals[11] = {0.3, 0.3};
  ANONSAFE_ASSIGN_OR_RETURN(BeliefFunction belief,
                            BeliefFunction::Create(std::move(intervals)));
  return ChainFixture{std::move(groups), std::move(belief)};
}

// ------------------------------------------------------------ enum names

TEST(EstimatorNamesTest, KindRoundTrip) {
  for (EstimatorKind kind :
       {EstimatorKind::kAuto, EstimatorKind::kOe, EstimatorKind::kExact,
        EstimatorKind::kSampler}) {
    auto parsed = ParseEstimatorKind(EstimatorKindName(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, kind);
  }
  auto bogus = ParseEstimatorKind("bogus");
  ASSERT_FALSE(bogus.ok());
  EXPECT_TRUE(bogus.status().IsInvalidArgument());
}

TEST(EstimatorNamesTest, BlockMethodRoundTrip) {
  for (BlockMethod method :
       {BlockMethod::kSingleton, BlockMethod::kCompleteBipartite,
        BlockMethod::kChain, BlockMethod::kPermanent, BlockMethod::kOEstimate,
        BlockMethod::kSampler}) {
    auto parsed = ParseBlockMethod(BlockMethodName(method));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, method);
  }
  EXPECT_TRUE(ParseBlockMethod("").status().IsInvalidArgument());
}

// ---------------------------------------------------------- closed forms

TEST(ClosedFormsTest, CompleteBipartiteExpectedCracks) {
  EXPECT_EQ(CompleteBipartiteExpectedCracks(0, 0), 0.0);
  EXPECT_EQ(CompleteBipartiteExpectedCracks(0, 5), 0.0);
  EXPECT_EQ(CompleteBipartiteExpectedCracks(5, 5), 1.0);
  EXPECT_EQ(CompleteBipartiteExpectedCracks(1, 4), 0.25);
  EXPECT_EQ(CompleteBipartiteExpectedCracks(3, 4), 0.75);
}

// -------------------------------------------------------------- planning

TEST(PlannerTest, ValidateOptions) {
  PlannerOptions ok;
  EXPECT_TRUE(ValidatePlannerOptions(ok).ok());

  PlannerOptions zero_cutoff;
  zero_cutoff.ryser_cutoff = 0;
  EXPECT_TRUE(ValidatePlannerOptions(zero_cutoff).IsInvalidArgument());

  PlannerOptions huge_cutoff;
  huge_cutoff.ryser_cutoff = kMaxPermanentN + 1;
  EXPECT_TRUE(ValidatePlannerOptions(huge_cutoff).IsInvalidArgument());

  PlannerOptions bad_sampler;
  bad_sampler.block_sampler.num_samples = 0;
  EXPECT_TRUE(ValidatePlannerOptions(bad_sampler).IsInvalidArgument());
}

TEST(PlannerTest, PointValuedBeliefYieldsCompleteBlocks) {
  // Point-valued: every frequency group is its own complete block.
  auto inst = MakePointValuedInstance({10, 20, 20, 20, 30}, 100);
  ASSERT_TRUE(inst.ok());
  auto graph = BipartiteGraph::Build(inst->groups, inst->belief);
  ASSERT_TRUE(graph.ok());
  auto plan = PlanBlocks(*graph, inst->groups);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->blocks.size(), 3u);
  EXPECT_EQ(plan->blocks[0].method, BlockMethod::kSingleton);
  EXPECT_EQ(plan->blocks[1].method, BlockMethod::kCompleteBipartite);
  EXPECT_EQ(plan->blocks[1].items.size(), 3u);
  EXPECT_EQ(plan->blocks[2].method, BlockMethod::kSingleton);

  auto estimate = EstimatePlanned(*plan);
  ASSERT_TRUE(estimate.ok());
  EXPECT_TRUE(estimate->exact);
  // Lemma 3: one expected crack per group.
  EXPECT_EQ(estimate->expected_cracks, 3.0);
  ASSERT_EQ(estimate->blocks.size(), 3u);
  EXPECT_EQ(estimate->blocks[1].expected_cracks, 1.0);
}

TEST(PlannerTest, ChainBlockUsesClosedForm) {
  auto fixture = MakeChain();
  ASSERT_TRUE(fixture.ok());
  auto graph = BipartiteGraph::Build(fixture->groups, fixture->belief);
  ASSERT_TRUE(graph.ok());
  auto plan = PlanBlocks(*graph, fixture->groups);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->blocks.size(), 1u);
  EXPECT_EQ(plan->blocks[0].method, BlockMethod::kChain);
  EXPECT_TRUE(plan->blocks[0].exact);

  auto estimate = EstimatePlanned(*plan);
  ASSERT_TRUE(estimate.ok());
  // Exclusive items crack with 1/2 each, seam items with 1/4 each.
  EXPECT_EQ(estimate->expected_cracks, 1.5);

  auto direct = OracleExpectedCracks(fixture->groups, fixture->belief);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(estimate->expected_cracks, *direct);
}

TEST(PlannerTest, MatchesDirectOnRandomInstances) {
  Rng rng(20260805);
  size_t chains_seen = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const size_t n = 2 + rng.UniformUint64(9);  // n in [2, 10]
    std::vector<SupportCount> supports(n);
    for (size_t i = 0; i < n; ++i) {
      supports[i] = static_cast<SupportCount>(1 + rng.UniformUint64(200));
    }
    auto table = FrequencyTable::FromSupports(std::move(supports), 1000);
    ASSERT_TRUE(table.ok());
    FrequencyGroups groups = FrequencyGroups::Build(*table);

    // Mix belief shapes: point-valued, uniform compliant width, and
    // per-item intervals stretching to an adjacent frequency group (the
    // construction that actually produces chain-shaped blocks — a
    // uniform width is symmetric and only merges complete blocks).
    Result<BeliefFunction> belief = Status::Internal("unset");
    const uint64_t shape = rng.UniformUint64(3);
    if (shape == 0) {
      belief = MakeCompliantIntervalBelief(*table, 0.0);
    } else if (shape == 1) {
      belief = MakeCompliantIntervalBelief(
          *table, groups.MedianGap() * rng.UniformDouble(0.2, 2.2));
    } else {
      std::vector<BeliefInterval> intervals(n);
      for (ItemId x = 0; x < n; ++x) {
        const size_t g = groups.group_of_item(x);
        double lo = groups.group_frequency(g);
        double hi = lo;
        if (g + 1 < groups.num_groups() && rng.Bernoulli(0.4)) {
          hi = groups.group_frequency(g + 1);
        } else if (g > 0 && rng.Bernoulli(0.4)) {
          lo = groups.group_frequency(g - 1);
        }
        intervals[x] = {lo, hi};
      }
      belief = BeliefFunction::Create(std::move(intervals));
    }
    ASSERT_TRUE(belief.ok());

    auto direct = OracleExpectedCracks(groups, *belief);
    ASSERT_TRUE(direct.ok());
    auto estimate = PlanAndEstimate(groups, *belief);
    ASSERT_TRUE(estimate.ok());
    EXPECT_TRUE(estimate->exact) << "trial " << trial;
    // Whole-graph permanents fit in 2^53 at n <= 10, so every leaf is one
    // correctly-rounded division on both sides: bit identity, not an
    // epsilon comparison.
    EXPECT_EQ(estimate->expected_cracks, *direct) << "trial " << trial;
    for (const BlockProvenance& block : estimate->blocks) {
      if (block.method == BlockMethod::kChain) ++chains_seen;
    }
  }
  // Make sure the chain closed form actually exercised.
  EXPECT_GT(chains_seen, 0u);
}

TEST(PlannerTest, MessyBlockUsesPermanentWithinCutoff) {
  auto messy = MakeMessy();
  ASSERT_TRUE(messy.ok());
  auto estimate = PlanAndEstimate(messy->groups, messy->belief);
  ASSERT_TRUE(estimate.ok());
  ASSERT_EQ(estimate->blocks.size(), 1u);
  EXPECT_EQ(estimate->blocks[0].method, BlockMethod::kPermanent);
  EXPECT_TRUE(estimate->exact);
  auto direct = OracleExpectedCracks(messy->groups, messy->belief);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(estimate->expected_cracks, *direct);
}

TEST(PlannerTest, RequireExactFailsBeyondCutoff) {
  auto messy = MakeMessy();
  ASSERT_TRUE(messy.ok());
  PlannerOptions options;
  options.ryser_cutoff = 4;  // the messy block has 12 items
  options.require_exact = true;
  auto estimate = PlanAndEstimate(messy->groups, messy->belief, options);
  ASSERT_FALSE(estimate.ok());
  EXPECT_TRUE(estimate.status().IsOutOfRange());
}

TEST(PlannerTest, OversizedBlockFallsBackToOEstimate) {
  auto messy = MakeMessy();
  ASSERT_TRUE(messy.ok());
  PlannerOptions options;
  options.ryser_cutoff = 4;
  auto estimate = PlanAndEstimate(messy->groups, messy->belief, options);
  ASSERT_TRUE(estimate.ok());
  EXPECT_FALSE(estimate->exact);
  ASSERT_EQ(estimate->blocks.size(), 1u);
  EXPECT_EQ(estimate->blocks[0].method, BlockMethod::kOEstimate);
  EXPECT_GT(estimate->expected_cracks, 0.0);
}

TEST(PlannerTest, SamplerFallbackIsDeterministicAndClose) {
  auto messy = MakeMessy();
  ASSERT_TRUE(messy.ok());
  PlannerOptions options;
  options.ryser_cutoff = 4;
  options.prefer_sampler = true;
  auto first = PlanAndEstimate(messy->groups, messy->belief, options);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->blocks.size(), 1u);
  EXPECT_EQ(first->blocks[0].method, BlockMethod::kSampler);
  EXPECT_FALSE(first->exact);
  auto direct = OracleExpectedCracks(messy->groups, messy->belief);
  ASSERT_TRUE(direct.ok());
  EXPECT_NEAR(first->expected_cracks, *direct, 0.5);

  auto second = PlanAndEstimate(messy->groups, messy->belief, options);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->expected_cracks, second->expected_cracks);

  // And determinism must hold across thread counts too.
  exec::ExecOptions eo;
  eo.threads = 4;
  exec::ExecContext ctx(eo);
  auto threaded = PlanAndEstimate(messy->groups, messy->belief, options, &ctx);
  ASSERT_TRUE(threaded.ok());
  EXPECT_EQ(first->expected_cracks, threaded->expected_cracks);
}

TEST(PlannerTest, ExactBeyondWholeGraphPermanent) {
  // Three independent messy 12-item clusters in disjoint frequency
  // bands: n = 36 > kMaxPermanentN, so the monolithic direct method is
  // structurally infeasible — yet every block is 12 items, so even
  // `require_exact` succeeds, with full per-block provenance.
  const size_t m = 10000;
  std::vector<SupportCount> supports;
  for (size_t c = 0; c < 3; ++c) {
    for (SupportCount s : {1000 * c + 100, 1000 * c + 200, 1000 * c + 300}) {
      for (int i = 0; i < 4; ++i) supports.push_back(s);
    }
  }
  auto table = FrequencyTable::FromSupports(std::move(supports), m);
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  ASSERT_GT(groups.num_items(), kMaxPermanentN);
  std::vector<BeliefInterval> intervals(36);
  for (size_t c = 0; c < 3; ++c) {
    const double lo = static_cast<double>(1000 * c + 100) / m;
    const double hi = static_cast<double>(1000 * c + 300) / m;
    for (size_t i = 0; i < 12; ++i) intervals[c * 12 + i] = {lo, hi};
    intervals[c * 12] = {lo, lo};
    intervals[c * 12 + 11] = {hi, hi};
  }
  auto belief = BeliefFunction::Create(std::move(intervals));
  ASSERT_TRUE(belief.ok());

  PlannerOptions options;
  options.require_exact = true;
  auto estimate = PlanAndEstimate(groups, *belief, options);
  ASSERT_TRUE(estimate.ok());
  EXPECT_TRUE(estimate->exact);
  ASSERT_EQ(estimate->blocks.size(), 3u);
  for (const BlockProvenance& block : estimate->blocks) {
    EXPECT_EQ(block.size, 12u);
    EXPECT_EQ(block.method, BlockMethod::kPermanent);
    EXPECT_TRUE(block.exact);
  }
  // Identical cluster structure at three frequency scales: each block
  // contributes the same expectation, and the totals are exact sums of
  // per-block permanent ratios.
  EXPECT_EQ(estimate->blocks[0].expected_cracks,
            estimate->blocks[1].expected_cracks);
  EXPECT_EQ(estimate->blocks[0].expected_cracks,
            estimate->blocks[2].expected_cracks);
  EXPECT_NEAR(estimate->expected_cracks,
              3.0 * estimate->blocks[0].expected_cracks, 1e-12);

  // The whole-graph oracle really cannot answer this instance.
  auto direct = OracleExpectedCracks(groups, *belief);
  ASSERT_FALSE(direct.ok());
  EXPECT_TRUE(direct.status().IsOutOfRange());
}

// --------------------------------------------------------- MakeEstimator

TEST(MakeEstimatorTest, AdaptersReportNamesAndExactness) {
  auto fixture = MakeChain();
  ASSERT_TRUE(fixture.ok());
  auto direct = OracleExpectedCracks(fixture->groups, fixture->belief);
  ASSERT_TRUE(direct.ok());

  EstimatorConfig config;
  auto auto_est = MakeEstimator(EstimatorKind::kAuto, config);
  EXPECT_STREQ(auto_est->name(), "auto");
  const adversary::AdversaryModel model = ModelOf(fixture->belief);
  auto auto_result = auto_est->Estimate(fixture->groups, model);
  ASSERT_TRUE(auto_result.ok());
  EXPECT_TRUE(auto_result->exact);
  EXPECT_EQ(auto_result->expected_cracks, *direct);

  auto exact_est = MakeEstimator(EstimatorKind::kExact, config);
  EXPECT_STREQ(exact_est->name(), "exact");
  auto exact_result = exact_est->Estimate(fixture->groups, model);
  ASSERT_TRUE(exact_result.ok());
  EXPECT_EQ(exact_result->expected_cracks, *direct);

  auto oe_est = MakeEstimator(EstimatorKind::kOe, config);
  EXPECT_STREQ(oe_est->name(), "oe");
  auto oe_result = oe_est->Estimate(fixture->groups, model);
  ASSERT_TRUE(oe_result.ok());
  EXPECT_FALSE(oe_result->exact);
  EXPECT_GT(oe_result->expected_cracks, 0.0);

  auto sampler_est = MakeEstimator(EstimatorKind::kSampler, config);
  EXPECT_STREQ(sampler_est->name(), "sampler");
  auto sampler_result = sampler_est->Estimate(fixture->groups, model);
  ASSERT_TRUE(sampler_result.ok());
  EXPECT_FALSE(sampler_result->exact);
  EXPECT_NEAR(sampler_result->expected_cracks, *direct, 0.5);
}

TEST(MakeEstimatorTest, OnlyOeAcceptsWeightsAndInterest) {
  auto fixture = MakeChain();
  ASSERT_TRUE(fixture.ok());
  adversary::AdversaryModel weighted = ModelOf(fixture->belief);
  weighted.adversary = "probabilistic";
  for (ItemId x = 0; x < fixture->belief.num_items(); ++x) {
    const ItemStabRange r = fixture->groups.Stab(
        fixture->belief.interval(x).lo, fixture->belief.interval(x).hi);
    weighted.weights.push_back({r.lo, 1.0, std::vector<double>(
                                               r.hi - r.lo + 1, 1.0)});
  }
  const std::vector<bool> interest = {true, false, true, false};
  const adversary::AdversaryDescription probabilistic =
      adversary::Adversary::Find("probabilistic")->Describe();
  const adversary::AdversaryDescription interval =
      adversary::Adversary::Find("interval")->Describe();

  EXPECT_TRUE(CheckAdversarySupported(EstimatorKind::kOe, probabilistic).ok());
  auto oe = MakeEstimator(EstimatorKind::kOe);
  EXPECT_TRUE(oe->Estimate(fixture->groups, weighted).ok());
  EXPECT_TRUE(oe->Estimate(fixture->groups, weighted, nullptr, &interest).ok());

  // The other engines see only the structural belief: they refuse
  // weights and interest masks instead of silently ignoring them. A
  // weighted model is refused with exactly the status the recipe and
  // `anonsafe plan` report before binding.
  for (EstimatorKind kind :
       {EstimatorKind::kAuto, EstimatorKind::kExact, EstimatorKind::kSampler}) {
    EXPECT_TRUE(CheckAdversarySupported(kind, interval).ok());
    const Status check = CheckAdversarySupported(kind, probabilistic);
    EXPECT_TRUE(check.IsUnimplemented()) << check;
    auto engine = MakeEstimator(kind);
    EXPECT_EQ(engine->Estimate(fixture->groups, weighted).status(), check);
    EXPECT_TRUE(engine
                    ->Estimate(fixture->groups, ModelOf(fixture->belief),
                               nullptr, &interest)
                    .status()
                    .IsInvalidArgument())
        << engine->name();
  }
}

// ------------------------------------------------------------ recipe knob

TEST(RecipeEstimatorTest, AutoFillsIntervalProvenance) {
  // Many tied groups with a tiny tolerance so the recipe reaches the
  // interval check instead of stopping at step 2.
  std::vector<SupportCount> supports;
  for (size_t i = 0; i < 24; ++i) {
    supports.push_back(static_cast<SupportCount>(10 + 10 * (i / 4)));
  }
  auto table = FrequencyTable::FromSupports(std::move(supports), 1000);
  ASSERT_TRUE(table.ok());

  RecipeOptions options;
  options.tolerance = 0.05;
  options.estimator = EstimatorKind::kAuto;
  auto result = AssessRisk(*table, options);
  ASSERT_TRUE(result.ok());
  ASSERT_NE(result->decision, RecipeDecision::kDiscloseAtPointValued);
  EXPECT_EQ(result->estimator, EstimatorKind::kAuto);
  EXPECT_FALSE(result->interval_blocks.empty());

  // The default path reports its kind and no provenance.
  RecipeOptions oe_options;
  oe_options.tolerance = 0.05;
  auto oe_result = AssessRisk(*table, oe_options);
  ASSERT_TRUE(oe_result.ok());
  EXPECT_EQ(oe_result->estimator, EstimatorKind::kOe);
  EXPECT_TRUE(oe_result->interval_blocks.empty());
  // Both paths bisect α on the same O-estimate machinery (§5.3), so the
  // final bound agrees even when the interval check differs.
  EXPECT_EQ(result->alpha_max, oe_result->alpha_max);
}

TEST(RecipeEstimatorTest, ValidatesPlannerOptions) {
  auto table = FrequencyTable::FromSupports({10, 20, 30}, 100);
  ASSERT_TRUE(table.ok());
  RecipeOptions options;
  options.estimator = EstimatorKind::kAuto;
  options.planner.ryser_cutoff = 0;
  auto result = AssessRisk(*table, options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(RecipeEstimatorTest, ItemsVariantRejectsPlanner) {
  auto table = FrequencyTable::FromSupports({10, 20, 30}, 100);
  ASSERT_TRUE(table.ok());
  RecipeOptions options;
  options.estimator = EstimatorKind::kAuto;
  std::vector<bool> interest = {true, false, true};
  auto result = AssessRisk(*table, options, nullptr, nullptr, &interest);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

}  // namespace
}  // namespace anonsafe
