// Bit-identity of the parallel analysis paths: every estimator must
// produce the exact same bits at 1, 2 and 8 threads (and with no
// context at all), because chunk boundaries, RNG streams, and
// reduction order are functions of the problem size only — never of
// the scheduling. See docs/PARALLELISM.md for the contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "belief/belief_function.h"
#include "belief/builders.h"
#include "core/alpha_sweep.h"
#include "core/oestimate.h"
#include "core/recipe.h"
#include "core/similarity.h"
#include "data/frequency.h"
#include "data/sampling.h"
#include "estimator/planner.h"
#include "exec/exec.h"
#include "graph/bipartite_graph.h"
#include "graph/matching_sampler.h"
#include "graph/permanent.h"
#include "util/rng.h"
#include "util/stats.h"
#include "exact_oracle.h"

namespace anonsafe {
namespace {

// A mid-size synthetic frequency profile: enough items that the
// parallel paths split into many chunks, small enough for fast tests.
Result<FrequencyTable> MakeProfile(size_t num_items, uint64_t seed) {
  Rng rng(seed);
  std::vector<SupportCount> supports;
  supports.reserve(num_items);
  for (size_t i = 0; i < num_items; ++i) {
    supports.push_back(1 + rng.UniformUint64(500));
  }
  return FrequencyTable::FromSupports(std::move(supports), 1000);
}

exec::ExecOptions WithThreads(size_t threads) {
  exec::ExecOptions options;
  options.threads = threads;
  return options;
}

// --------------------------------------------------------- Assess-Risk

TEST(DeterminismTest, AssessRiskBitIdenticalAcrossThreadCounts) {
  auto table = MakeProfile(300, 17);
  ASSERT_TRUE(table.ok());
  RecipeOptions base;
  base.tolerance = 0.1;

  std::vector<RecipeResult> results;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    RecipeOptions options = base;
    options.exec.threads = threads;
    auto r = AssessRisk(*table, options);
    ASSERT_TRUE(r.ok()) << threads << " threads: " << r.status();
    results.push_back(*r);
  }
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i].decision, results[0].decision);
    EXPECT_EQ(results[i].interval_oe, results[0].interval_oe);
    EXPECT_EQ(results[i].alpha_max, results[0].alpha_max);
    EXPECT_EQ(results[i].delta_med, results[0].delta_med);
  }
}

TEST(DeterminismTest, AverageOEstimateBitIdenticalAcrossThreadCounts) {
  auto table = MakeProfile(200, 23);
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  auto belief = MakeCompliantIntervalBelief(*table, groups.MedianGap());
  ASSERT_TRUE(belief.ok());
  auto sweep = AlphaCompliancySweep::Create(*table, *belief, 5, 7);
  ASSERT_TRUE(sweep.ok());

  std::vector<double> averages;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    exec::ExecContext ctx(WithThreads(threads));
    auto avg = sweep->AverageOEstimate(groups, 0.6, {}, &ctx);
    ASSERT_TRUE(avg.ok()) << avg.status();
    averages.push_back(*avg);
  }
  // Null context must match too (the default API path).
  auto null_ctx = sweep->AverageOEstimate(groups, 0.6);
  ASSERT_TRUE(null_ctx.ok());
  EXPECT_EQ(averages[0], averages[1]);
  EXPECT_EQ(averages[0], averages[2]);
  EXPECT_EQ(averages[0], *null_ctx);
}

TEST(DeterminismTest, OEstimateBitIdenticalWithAndWithoutContext) {
  auto table = MakeProfile(400, 31);
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  auto belief = MakeCompliantIntervalBelief(*table, groups.MedianGap());
  ASSERT_TRUE(belief.ok());

  auto none = ComputeOEstimate(groups, *belief);
  ASSERT_TRUE(none.ok());
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    exec::ExecContext ctx(WithThreads(threads));
    auto with = ComputeOEstimate(groups, *belief, {}, &ctx);
    ASSERT_TRUE(with.ok());
    EXPECT_EQ(with->expected_cracks, none->expected_cracks) << threads;
    EXPECT_EQ(with->forced_items, none->forced_items) << threads;
  }
}

// ------------------------------------------------------------- Sampler

TEST(DeterminismTest, SamplerChainsBitIdenticalAcrossThreadCounts) {
  auto table = MakeProfile(60, 41);
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  auto belief = MakeCompliantIntervalBelief(*table, groups.MedianGap());
  ASSERT_TRUE(belief.ok());
  SamplerOptions options;
  options.num_samples = 120;
  options.samples_per_seed = 25;  // 5 chains, last one short
  options.burn_in_sweeps = 30;
  options.thinning_sweeps = 2;
  auto sampler = MatchingSampler::Create(groups, *belief, options);
  ASSERT_TRUE(sampler.ok());

  std::vector<size_t> sequential = sampler->SampleCrackCounts();
  ASSERT_EQ(sequential.size(), 120u);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    exec::ExecContext ctx(WithThreads(threads));
    std::vector<size_t> parallel = sampler->SampleCrackCounts(&ctx);
    EXPECT_EQ(parallel, sequential) << threads << " threads";
  }
  EXPECT_TRUE(sampler->CurrentStateConsistent());
}

// ----------------------------------------------------------- Permanent

TEST(DeterminismTest, RyserPermanentBitIdenticalAcrossThreadCounts) {
  // n = 16 crosses kRyserParallelMinN, so the chunked path runs.
  const size_t n = 16;
  Rng rng(53);
  std::vector<uint64_t> rows(n, 0);
  for (size_t i = 0; i < n; ++i) {
    rows[i] |= uint64_t{1} << i;  // diagonal keeps the permanent positive
    for (size_t j = 0; j < n; ++j) {
      if (rng.Bernoulli(0.4)) rows[i] |= uint64_t{1} << j;
    }
  }
  auto none = PermanentRyser(rows);
  ASSERT_TRUE(none.ok());
  EXPECT_GT(*none, 0.0);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    exec::ExecContext ctx(WithThreads(threads));
    auto with = PermanentRyser(rows, &ctx);
    ASSERT_TRUE(with.ok());
    EXPECT_EQ(*with, *none) << threads << " threads";
  }
}

// ------------------------------------------------------------- Planner

// Differential test for the block-decomposed planner: on 200 random
// small instances (n <= 12, mixed belief shapes) the auto estimator
// must be bit-identical to the monolithic direct method at every
// thread count. Whole-graph permanents at n <= 12 stay below 2^53, so
// each per-item crack probability is a single correctly-rounded IEEE
// division on both sides and the fixed-shape reduction makes the sum
// order-independent of scheduling — EXPECT_EQ, not EXPECT_NEAR.
TEST(DeterminismTest, PlannerMatchesDirectAcrossThreadCounts) {
  Rng rng(20260806);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = 2 + rng.UniformUint64(11);  // n in [2, 12]
    std::vector<SupportCount> supports(n);
    for (size_t i = 0; i < n; ++i) {
      supports[i] = static_cast<SupportCount>(1 + rng.UniformUint64(300));
    }
    auto table = FrequencyTable::FromSupports(std::move(supports), 1000);
    ASSERT_TRUE(table.ok());
    FrequencyGroups groups = FrequencyGroups::Build(*table);

    // Rotate through belief shapes: point-valued, uniform compliant
    // width, and per-item intervals stretched to an adjacent group's
    // frequency (the shape that produces chain blocks).
    Result<BeliefFunction> belief = Status::Internal("unset");
    switch (trial % 3) {
      case 0:
        belief = MakeCompliantIntervalBelief(*table, 0.0);
        break;
      case 1:
        belief = MakeCompliantIntervalBelief(
            *table, groups.MedianGap() * rng.UniformDouble(0.2, 2.2));
        break;
      default: {
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
        break;
      }
    }
    ASSERT_TRUE(belief.ok());

    auto direct = OracleExpectedCracks(groups, *belief);
    ASSERT_TRUE(direct.ok()) << "trial " << trial;
    for (size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
      exec::ExecContext ctx(WithThreads(threads));
      auto planned = PlanAndEstimate(groups, *belief, {}, &ctx);
      ASSERT_TRUE(planned.ok())
          << "trial " << trial << ", " << threads << " threads";
      EXPECT_TRUE(planned->exact) << "trial " << trial;
      EXPECT_EQ(planned->expected_cracks, *direct)
          << "trial " << trial << ", " << threads << " threads";
    }
  }
}

// ---------------------------------------- Adversary-seam differential

// The adversary registry must be invisible for the default model: on
// 200 random frequency profiles the full recipe — which now routes its
// belief construction through `Adversary::Find("interval")->Bind` —
// must be bit-identical across 1/4/8 threads AND reproduce the legacy
// replica computed inline here: the compliant interval belief at the
// recipe's own δ_med fed to ComputeOEstimate. Every quantity is the
// same IEEE arithmetic on both sides, so EXPECT_EQ, not EXPECT_NEAR.
TEST(DeterminismTest, IntervalAdversaryMatchesLegacyAcrossThreadCounts) {
  Rng rng(20260808);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = 40 + rng.UniformUint64(21);  // n in [40, 60]
    std::vector<SupportCount> supports(n);
    for (size_t i = 0; i < n; ++i) {
      supports[i] = static_cast<SupportCount>(1 + rng.UniformUint64(500));
    }
    auto table = FrequencyTable::FromSupports(std::move(supports), 1000);
    ASSERT_TRUE(table.ok()) << "trial " << trial;

    std::vector<RecipeResult> results;
    for (size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
      RecipeOptions options;
      options.exec.threads = threads;
      auto r = AssessRisk(*table, options);
      ASSERT_TRUE(r.ok()) << "trial " << trial << ", " << threads
                          << " threads: " << r.status();
      results.push_back(*r);
    }
    for (size_t i = 1; i < results.size(); ++i) {
      EXPECT_EQ(results[i].decision, results[0].decision) << trial;
      EXPECT_EQ(results[i].interval_oe, results[0].interval_oe) << trial;
      EXPECT_EQ(results[i].alpha_max, results[0].alpha_max) << trial;
      EXPECT_EQ(results[i].delta_med, results[0].delta_med) << trial;
    }
    EXPECT_EQ(results[0].adversary, "interval") << trial;

    if (results[0].decision == RecipeDecision::kDiscloseAtPointValued) {
      continue;  // the interval check never ran; nothing to replicate
    }
    FrequencyGroups groups = FrequencyGroups::Build(*table);
    auto belief = MakeCompliantIntervalBelief(*table, results[0].delta_med);
    ASSERT_TRUE(belief.ok()) << "trial " << trial;
    auto legacy = ComputeOEstimate(groups, *belief);
    ASSERT_TRUE(legacy.ok()) << "trial " << trial;
    EXPECT_EQ(results[0].interval_oe, legacy->expected_cracks) << trial;
  }
}

// The non-default adversaries make the same bit-identity promise: the
// weighted O-estimate reduction uses fixed per-chunk slots like the
// uniform one, and exact-support binding is pure selection.
TEST(DeterminismTest, NonIntervalAdversariesBitIdenticalAcrossThreadCounts) {
  auto table = MakeProfile(300, 19);
  ASSERT_TRUE(table.ok());

  RecipeOptions probabilistic;
  probabilistic.adversary = "probabilistic";
  probabilistic.adversary_params.Set("span", 2.0);
  probabilistic.adversary_params.Set("sigma", 1.0);

  RecipeOptions exact_support;
  exact_support.adversary = "exact_support";
  exact_support.adversary_params.Set("k", 12.0);

  for (const RecipeOptions& base : {probabilistic, exact_support}) {
    std::vector<RecipeResult> results;
    for (size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
      RecipeOptions options = base;
      options.exec.threads = threads;
      auto r = AssessRisk(*table, options);
      ASSERT_TRUE(r.ok()) << base.adversary << ", " << threads
                          << " threads: " << r.status();
      results.push_back(*r);
    }
    for (size_t i = 1; i < results.size(); ++i) {
      EXPECT_EQ(results[i].decision, results[0].decision) << base.adversary;
      EXPECT_EQ(results[i].interval_oe, results[0].interval_oe)
          << base.adversary;
      EXPECT_EQ(results[i].alpha_max, results[0].alpha_max) << base.adversary;
      EXPECT_EQ(results[i].delta_med, results[0].delta_med) << base.adversary;
    }
  }
}

// ----------------------------------------------- Similarity-by-Sampling

// Figure 13 the way it was computed before samples became masks: copy
// every sample out as a Database, build the belief from it, then count
// and group it again for the group count. Kept here as the oracle.
Result<std::vector<SimilarityPoint>> CopyingSimilarity(
    const Database& db, const SimilarityOptions& options) {
  ANONSAFE_ASSIGN_OR_RETURN(FrequencyTable truth, FrequencyTable::Compute(db));
  Rng rng(options.exec.seed);
  std::vector<SimilarityPoint> curve;
  for (double p : options.sample_fractions) {
    std::vector<double> alphas, deltas, group_counts;
    for (size_t rep = 0; rep < options.samples_per_fraction; ++rep) {
      ANONSAFE_ASSIGN_OR_RETURN(Database sample, SampleFraction(db, p, &rng));
      double delta = 0.0;
      Result<BeliefFunction> belief =
          options.use_average_gap
              ? MakeBeliefFromSampleAverageGap(sample, &delta)
              : MakeBeliefFromSample(sample, &delta);
      ANONSAFE_RETURN_IF_ERROR(belief.status());
      ANONSAFE_ASSIGN_OR_RETURN(double alpha,
                                belief->ComplianceFraction(truth));
      ANONSAFE_ASSIGN_OR_RETURN(FrequencyTable sample_table,
                                FrequencyTable::Compute(sample));
      alphas.push_back(alpha);
      deltas.push_back(delta);
      group_counts.push_back(static_cast<double>(
          FrequencyGroups::Build(sample_table).num_groups()));
    }
    SimilarityPoint point;
    point.sample_fraction = p;
    point.mean_alpha = Mean(alphas);
    point.stddev_alpha = SampleStdDev(alphas);
    point.mean_delta = Mean(deltas);
    point.mean_groups = Mean(group_counts);
    curve.push_back(point);
  }
  return curve;
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

void ExpectSameCurve(const std::vector<SimilarityPoint>& want,
                     const std::vector<SimilarityPoint>& got,
                     const std::string& label) {
  ASSERT_EQ(want.size(), got.size()) << label;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(Bits(want[i].sample_fraction), Bits(got[i].sample_fraction))
        << label << " point " << i;
    EXPECT_EQ(Bits(want[i].mean_alpha), Bits(got[i].mean_alpha))
        << label << " point " << i;
    EXPECT_EQ(Bits(want[i].stddev_alpha), Bits(got[i].stddev_alpha))
        << label << " point " << i;
    EXPECT_EQ(Bits(want[i].mean_delta), Bits(got[i].mean_delta))
        << label << " point " << i;
    EXPECT_EQ(Bits(want[i].mean_groups), Bits(got[i].mean_groups))
        << label << " point " << i;
  }
}

TEST(DeterminismTest, SimilarityMatchesCopyingPathAcrossThreadCounts) {
  // m = 3 * 6667, so k = 6667 is the first sample size on the shuffle
  // branch of SampleWithoutReplacement (k * 3 >= m) and k = 6666 the
  // last on Floyd's; p = 1e-5 rounds to k = 0 and is lifted to 1. The
  // database is tall enough that support counting splits into several
  // chunks.
  const size_t m = 3 * 6667;
  Rng gen(404);
  Database db(60);
  for (size_t t = 0; t < m; ++t) {
    const size_t width = 1 + gen.UniformUint64(6);
    std::vector<size_t> picks = gen.SampleWithoutReplacement(
        60, std::min<size_t>(width + (t % 7 == 0 ? 20 : 0), 60));
    db.AddTransactionUnchecked(Transaction(picks.begin(), picks.end()));
  }
  SimilarityOptions base;
  base.sample_fractions = {1e-5, 6666.0 / m, 6667.0 / m, 0.5, 1.0};
  base.samples_per_fraction = 3;
  base.exec.seed = 23;

  for (bool average : {false, true}) {
    SimilarityOptions options = base;
    options.use_average_gap = average;
    auto want = CopyingSimilarity(db, options);
    ASSERT_TRUE(want.ok()) << want.status();
    for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
      const std::string label = std::string(average ? "average" : "median") +
                                " gap, " + std::to_string(threads) +
                                " threads";
      options.exec.threads = threads;
      auto own_ctx = SimilarityBySampling(db, options);
      ASSERT_TRUE(own_ctx.ok()) << label << ": " << own_ctx.status();
      ExpectSameCurve(*want, *own_ctx, label);

      exec::ExecContext ctx(WithThreads(threads));
      auto shared_ctx = SimilarityBySampling(db, options, &ctx);
      ASSERT_TRUE(shared_ctx.ok()) << label << ": " << shared_ctx.status();
      ExpectSameCurve(*want, *shared_ctx, label + " (caller's context)");
    }
  }
}

// ------------------------------------------------- Items of interest

// The items-of-interest recipe is the one Fig. 8 flow with an include
// mask. An all-true mask must reproduce the unmasked run bit for bit
// (Lemma 4's Σ c_i/n_i collapses to g; every sum keeps every item), and
// an interest run replaying a shared RecipeArtifacts must match a fresh
// one. Few distinct supports keep g small, so tolerances spread the
// trials over all three decisions.
TEST(DeterminismTest, InterestRecipeMatchesUnmaskedAndArtifactReplay) {
  Rng rng(20261017);
  std::vector<bool> seen_plain(3, false), seen_interest(3, false);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = 40 + rng.UniformUint64(21);  // n in [40, 60]
    const uint64_t spread = std::vector<uint64_t>{4, 12, 500}[trial % 3];
    std::vector<SupportCount> supports(n);
    for (size_t i = 0; i < n; ++i) {
      supports[i] = static_cast<SupportCount>(1 + rng.UniformUint64(spread));
    }
    auto table = FrequencyTable::FromSupports(std::move(supports), 1000);
    ASSERT_TRUE(table.ok()) << "trial " << trial;
    const std::vector<bool> all(n, true);
    std::vector<bool> interest(n, false);
    interest[rng.UniformUint64(n)] = true;  // never empty
    for (size_t x = 0; x < n; ++x) {
      if (rng.UniformUint64(2) == 0) interest[x] = true;
    }
    const double tolerance =
        std::vector<double>{0.5, 0.2, 0.05, 0.01}[rng.UniformUint64(4)];

    std::vector<RecipeResult> interest_runs;
    for (size_t threads : {size_t{1}, size_t{4}}) {
      const std::string label = "trial " + std::to_string(trial) + ", " +
                                std::to_string(threads) + " threads";
      RecipeOptions options;
      options.tolerance = tolerance;
      options.exec.threads = threads;

      auto plain = AssessRisk(*table, options);
      auto masked = AssessRisk(*table, options, nullptr, nullptr, &all);
      ASSERT_TRUE(plain.ok()) << label << ": " << plain.status();
      ASSERT_TRUE(masked.ok()) << label << ": " << masked.status();
      EXPECT_EQ(masked->decision, plain->decision) << label;
      EXPECT_EQ(Bits(masked->interval_oe), Bits(plain->interval_oe)) << label;
      EXPECT_EQ(Bits(masked->alpha_max), Bits(plain->alpha_max)) << label;
      EXPECT_EQ(masked->num_items, plain->num_items) << label;
      seen_plain[static_cast<size_t>(plain->decision)] = true;

      auto fresh = AssessRisk(*table, options, nullptr, nullptr, &interest);
      ASSERT_TRUE(fresh.ok()) << label << ": " << fresh.status();
      seen_interest[static_cast<size_t>(fresh->decision)] = true;
      // One artifact cache, primed by an unmasked run, then replayed by
      // two interest runs (the second also hits the cached α sweep).
      std::shared_ptr<RecipeArtifacts> artifacts = MakeRecipeArtifacts();
      ASSERT_TRUE(AssessRisk(*table, options, nullptr, artifacts.get()).ok());
      for (int replay = 0; replay < 2; ++replay) {
        auto reused =
            AssessRisk(*table, options, nullptr, artifacts.get(), &interest);
        ASSERT_TRUE(reused.ok()) << label << ": " << reused.status();
        EXPECT_EQ(reused->decision, fresh->decision) << label;
        EXPECT_EQ(Bits(reused->interval_oe), Bits(fresh->interval_oe))
            << label;
        EXPECT_EQ(Bits(reused->alpha_max), Bits(fresh->alpha_max)) << label;
      }
      interest_runs.push_back(*fresh);
    }
    EXPECT_EQ(interest_runs[1].decision, interest_runs[0].decision) << trial;
    EXPECT_EQ(Bits(interest_runs[1].interval_oe),
              Bits(interest_runs[0].interval_oe))
        << trial;
    EXPECT_EQ(Bits(interest_runs[1].alpha_max),
              Bits(interest_runs[0].alpha_max))
        << trial;
  }
  for (size_t d = 0; d < 3; ++d) {
    EXPECT_TRUE(seen_plain[d]) << "no unmasked trial reached decision " << d;
    EXPECT_TRUE(seen_interest[d]) << "no interest trial reached decision "
                                  << d;
  }
}

// --------------------------------------------- Validation regressions

TEST(ValidationTest, RecipeRejectsMalformedOptions) {
  auto table = MakeProfile(20, 3);
  ASSERT_TRUE(table.ok());

  RecipeOptions zero_iters;
  zero_iters.binary_search_iterations = 0;
  EXPECT_TRUE(AssessRisk(*table, zero_iters).status().IsInvalidArgument());

  RecipeOptions zero_runs;
  zero_runs.exec.runs = 0;
  EXPECT_TRUE(AssessRisk(*table, zero_runs).status().IsInvalidArgument());

  RecipeOptions bad_tolerance;
  bad_tolerance.tolerance = 1.5;
  EXPECT_TRUE(
      AssessRisk(*table, bad_tolerance).status().IsInvalidArgument());

  EXPECT_TRUE(ValidateRecipeOptions(RecipeOptions{}).ok());
}

TEST(ValidationTest, SamplerRejectsMalformedOptions) {
  auto table = MakeProfile(20, 3);
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  auto belief = MakeCompliantIntervalBelief(*table, groups.MedianGap());
  ASSERT_TRUE(belief.ok());

  SamplerOptions zero_per_seed;
  zero_per_seed.samples_per_seed = 0;
  EXPECT_TRUE(MatchingSampler::Create(groups, *belief, zero_per_seed)
                  .status().IsInvalidArgument());

  SamplerOptions bad_fraction;
  bad_fraction.cycle_move_fraction = 1.5;
  EXPECT_TRUE(MatchingSampler::Create(groups, *belief, bad_fraction)
                  .status().IsInvalidArgument());

  SamplerOptions negative_scale;
  negative_scale.burn_in_scale = -1.0;
  EXPECT_TRUE(MatchingSampler::Create(groups, *belief, negative_scale)
                  .status().IsInvalidArgument());
}

TEST(ValidationTest, BeliefAtRejectsOutOfRangeRun) {
  auto table = MakeProfile(30, 5);
  ASSERT_TRUE(table.ok());
  auto belief = MakeCompliantIntervalBelief(
      *table, FrequencyGroups::Build(*table).MedianGap());
  ASSERT_TRUE(belief.ok());
  auto sweep = AlphaCompliancySweep::Create(*table, *belief, 3, 7);
  ASSERT_TRUE(sweep.ok());
  EXPECT_TRUE(sweep->BeliefAt(3, 0.5).status().IsOutOfRange());
  EXPECT_TRUE(sweep->BeliefAt(0, 0.5).ok());
}

// ------------------------------------------------ exec.* determinism

TEST(ExecOptionsTest, RecipeSeedDeterminesResult) {
  auto table = MakeProfile(80, 29);
  ASSERT_TRUE(table.ok());

  RecipeOptions options;
  options.exec.seed = 123;
  options.exec.runs = 4;
  auto a = AssessRisk(*table, options);
  ASSERT_TRUE(a.ok());
  auto b = AssessRisk(*table, options);
  ASSERT_TRUE(b.ok());

  EXPECT_EQ(a->alpha_max, b->alpha_max);
  EXPECT_EQ(a->interval_oe, b->interval_oe);
  EXPECT_EQ(a->decision, b->decision);
}

TEST(ExecOptionsTest, SamplerSeedDeterminesSamples) {
  auto table = MakeProfile(30, 37);
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  auto belief = MakeCompliantIntervalBelief(*table, groups.MedianGap());
  ASSERT_TRUE(belief.ok());

  SamplerOptions options;
  options.exec.seed = 77;
  options.num_samples = 40;
  options.burn_in_sweeps = 10;
  auto a = MatchingSampler::Create(groups, *belief, options);
  ASSERT_TRUE(a.ok());
  auto b = MatchingSampler::Create(groups, *belief, options);
  ASSERT_TRUE(b.ok());

  EXPECT_EQ(a->SampleCrackCounts(), b->SampleCrackCounts());
}

}  // namespace
}  // namespace anonsafe
