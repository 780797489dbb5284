#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "belief/builders.h"
#include "data/database.h"
#include "data/frequency.h"
#include "defense/optimizer.h"
#include "defense/scheme.h"
#include "estimator/planner.h"
#include "exec/exec.h"
#include "util/rng.h"
#include "test_rows.h"

namespace anonsafe {
namespace {

using defense::CandidateScore;
using defense::DefenseFrontier;
using defense::DefenseScheme;
using defense::OptimizerOptions;
using defense::RecommendDefense;

// The fixed 12-transaction / 5-item release used by check_defense.sh:
// small enough for exact estimation, rich enough for a non-trivial
// frontier (three frequency groups, one rare item).
Database FixtureDb() {
  auto db = Database::FromTransactions(
      5, {{0, 1, 2}, {0, 1}, {1, 2, 3}, {0, 2, 3}, {1, 3}, {0, 1, 3},
          {2, 3}, {0, 3}, {1, 2}, {0, 1, 2, 3}, {1, 2, 3, 4}, {0, 4}});
  EXPECT_TRUE(db.ok());
  return *db;
}

Result<DefenseFrontier> Sweep(const Database& db, size_t threads,
                              uint64_t seed = 7) {
  exec::ExecOptions eo;
  eo.seed = seed;
  eo.threads = threads;
  exec::ExecContext ctx(eo);
  return RecommendDefense(db, OptimizerOptions{}, &ctx);
}

TEST(OptimizerTest, SweepCoversEveryRegisteredScheme) {
  Database db = FixtureDb();
  auto frontier = Sweep(db, 1);
  ASSERT_TRUE(frontier.ok());
  EXPECT_EQ(frontier->num_items, 5u);
  EXPECT_EQ(frontier->num_transactions, 12u);
  EXPECT_EQ(frontier->seed, 7u);
  EXPECT_GT(frontier->baseline_cracks, 0.0);
  EXPECT_GT(frontier->baseline_groups, 0u);

  // Every registered scheme contributed its whole grid, scheme-major,
  // indices dense in enumeration order.
  size_t expected = 0;
  auto table = FrequencyTable::Compute(db);
  ASSERT_TRUE(table.ok());
  for (const DefenseScheme* s : DefenseScheme::All()) {
    expected += s->ParamSpace(*table).size();
  }
  ASSERT_EQ(frontier->candidates.size(), expected);
  for (size_t i = 0; i < frontier->candidates.size(); ++i) {
    EXPECT_EQ(frontier->candidates[i].index, i);
    EXPECT_NE(DefenseScheme::Find(frontier->candidates[i].scheme), nullptr);
  }
  EXPECT_FALSE(frontier->frontier.empty());
}

TEST(OptimizerTest, FrontierIsBitIdenticalAcrossThreadCounts) {
  Database db = FixtureDb();
  auto t1 = Sweep(db, 1);
  auto t4 = Sweep(db, 4);
  auto t8 = Sweep(db, 8);
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t4.ok());
  ASSERT_TRUE(t8.ok());
  const std::string doc1 = t1->ToJson().Dump();
  EXPECT_EQ(doc1, t4->ToJson().Dump());
  EXPECT_EQ(doc1, t8->ToJson().Dump());
}

TEST(OptimizerTest, SeedChangesAreConfinedToSamplerStreams) {
  // The fixture is exact everywhere, so a different master seed must
  // still produce the identical frontier document apart from the
  // recorded seed itself.
  Database db = FixtureDb();
  auto a = Sweep(db, 2, 7);
  auto b = Sweep(db, 2, 1234);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->frontier, b->frontier);
  ASSERT_EQ(a->candidates.size(), b->candidates.size());
  for (size_t i = 0; i < a->candidates.size(); ++i) {
    EXPECT_EQ(a->candidates[i].expected_cracks,
              b->candidates[i].expected_cracks);
    EXPECT_EQ(a->candidates[i].utility.total_loss,
              b->candidates[i].utility.total_loss);
  }
}

TEST(OptimizerTest, FrontierIsExactlyTheNonDominatedSet) {
  Database db = FixtureDb();
  auto frontier = Sweep(db, 1);
  ASSERT_TRUE(frontier.ok());
  const auto& cs = frontier->candidates;

  // Recompute dominance from scratch and compare against the sweep.
  std::vector<size_t> expect;
  for (size_t i = 0; i < cs.size(); ++i) {
    if (!cs[i].feasible) continue;
    bool dominated = false;
    for (size_t j = 0; j < cs.size() && !dominated; ++j) {
      if (i == j || !cs[j].feasible) continue;
      const bool no_worse =
          cs[j].expected_cracks <= cs[i].expected_cracks &&
          cs[j].utility.total_loss <= cs[i].utility.total_loss;
      const bool better =
          cs[j].expected_cracks < cs[i].expected_cracks ||
          cs[j].utility.total_loss < cs[i].utility.total_loss;
      dominated = no_worse && better;
    }
    if (!dominated) expect.push_back(i);
  }
  std::sort(expect.begin(), expect.end(), [&](size_t a, size_t b) {
    if (cs[a].expected_cracks != cs[b].expected_cracks) {
      return cs[a].expected_cracks < cs[b].expected_cracks;
    }
    if (cs[a].utility.total_loss != cs[b].utility.total_loss) {
      return cs[a].utility.total_loss < cs[b].utility.total_loss;
    }
    return a < b;
  });
  EXPECT_EQ(frontier->frontier, expect);

  // on_frontier flags agree with membership.
  for (size_t i = 0; i < cs.size(); ++i) {
    const bool member =
        std::find(expect.begin(), expect.end(), i) != expect.end();
    EXPECT_EQ(cs[i].on_frontier, member) << "candidate " << i;
  }
}

TEST(OptimizerTest, EveryFrontierPointIsReplayable) {
  Database db = FixtureDb();
  auto frontier = Sweep(db, 1);
  ASSERT_TRUE(frontier.ok());
  auto table = FrequencyTable::Compute(db);
  ASSERT_TRUE(table.ok());
  for (size_t idx : frontier->frontier) {
    const CandidateScore& c = frontier->candidates[idx];
    const DefenseScheme* s = DefenseScheme::Find(c.scheme);
    ASSERT_NE(s, nullptr);
    auto replay = s->Plan(*table, c.params);
    ASSERT_TRUE(replay.ok()) << c.scheme << " " << c.params.ToString();
    EXPECT_EQ(replay->ToJson().Dump(), c.plan.ToJson().Dump());

    // The recorded per-candidate RNG stream rebuilds the same release.
    Rng rng_a(exec::SplitSeed(frontier->seed, 2 * c.index + 2));
    Rng rng_b(exec::SplitSeed(frontier->seed, 2 * c.index + 2));
    auto da = s->Apply(db, *replay, &rng_a);
    auto db2 = s->Apply(db, *replay, &rng_b);
    ASSERT_TRUE(da.ok());
    ASSERT_TRUE(db2.ok());
    EXPECT_EQ(Rows(*da), Rows(*db2));
  }
}

// The sweep as it scored candidates before the edit decision was split
// from the row writer, kept as a test-only oracle: every candidate's
// defended database is written by `Apply` and counted by
// `FrequencyTable::Compute`. Risk, utility and the frontier follow the
// rules `RecommendDefense` documents, on the same seed streams.
DefenseFrontier OracleSweep(const Database& db, uint64_t seed) {
  const OptimizerOptions options;
  exec::ExecOptions eo;
  eo.seed = seed;
  exec::ExecContext ctx(eo);
  const FrequencyTable before = *FrequencyTable::Compute(db);

  // Expected cracks of the release view (published items only) under the
  // compliant interval belief at its own δ_med.
  struct Risk {
    double cracks = 0.0;
    bool exact = true;
    size_t components = 0, k = 0, groups = 0;
  };
  auto score = [&](const FrequencyTable& table, uint64_t stream) {
    std::vector<SupportCount> alive;
    for (SupportCount s : table.supports()) {
      if (s > 0) alive.push_back(s);
    }
    Risk risk;
    if (alive.empty()) return risk;
    const FrequencyTable release =
        *FrequencyTable::FromSupports(alive, table.num_transactions());
    const FrequencyGroups groups = FrequencyGroups::Build(release);
    risk.groups = groups.num_groups();
    risk.k = groups.group_size(0);
    for (size_t g = 1; g < groups.num_groups(); ++g) {
      risk.k = std::min(risk.k, groups.group_size(g));
    }
    PlannerOptions planner = options.planner;
    planner.block_sampler.exec.seed = exec::SplitSeed(seed, stream);
    const CrackEstimate estimate = *PlanAndEstimate(
        groups, *MakeCompliantIntervalBelief(release, groups.MedianGap()),
        planner, &ctx);
    risk.cracks = estimate.expected_cracks;
    risk.exact = estimate.exact;
    risk.components = estimate.num_components;
    return risk;
  };

  DefenseFrontier out;
  out.num_items = before.num_items();
  out.num_transactions = before.num_transactions();
  out.seed = seed;
  const Risk baseline = score(before, 1);
  out.baseline_cracks = baseline.cracks;
  out.baseline_exact = baseline.exact;
  out.baseline_groups = baseline.groups;
  for (const DefenseScheme* scheme : DefenseScheme::All()) {
    for (const defense::DefenseParams& params : scheme->ParamSpace(before)) {
      CandidateScore c;
      c.index = out.candidates.size();
      c.scheme = scheme->name();
      c.params = params;
      Result<defense::DefensePlan> plan = scheme->Plan(before, params);
      EXPECT_TRUE(plan.ok() || plan.status().IsFailedPrecondition())
          << plan.status();
      Rng rng(exec::SplitSeed(seed, 2 * c.index + 2));
      const Result<Database> defended =
          plan.ok() ? scheme->Apply(db, *plan, &rng) : plan.status();
      const Result<FrequencyTable> after =
          defended.ok() ? FrequencyTable::Compute(*defended)
                        : defended.status();
      if (!after.ok()) {
        c.reason = after.status().message();
      } else {
        const Risk risk = score(*after, 2 * c.index + 3);
        c.feasible = true;
        c.plan = *plan;
        c.expected_cracks = risk.cracks;
        c.exact = risk.exact;
        c.num_components = risk.components;
        c.k_anonymity = risk.k;
        c.utility = defense::ComputeUtilityLoss(before, *after);
      }
      out.candidates.push_back(std::move(c));
    }
  }

  const auto& cs = out.candidates;
  for (size_t i = 0; i < cs.size(); ++i) {
    bool dominated = !cs[i].feasible;
    for (size_t j = 0; j < cs.size() && !dominated; ++j) {
      dominated = j != i && cs[j].feasible &&
                  cs[j].expected_cracks <= cs[i].expected_cracks &&
                  cs[j].utility.total_loss <= cs[i].utility.total_loss &&
                  (cs[j].expected_cracks < cs[i].expected_cracks ||
                   cs[j].utility.total_loss < cs[i].utility.total_loss);
    }
    if (!dominated) out.frontier.push_back(i);
  }
  std::sort(out.frontier.begin(), out.frontier.end(), [&](size_t a, size_t b) {
    if (cs[a].expected_cracks != cs[b].expected_cracks) {
      return cs[a].expected_cracks < cs[b].expected_cracks;
    }
    if (cs[a].utility.total_loss != cs[b].utility.total_loss) {
      return cs[a].utility.total_loss < cs[b].utility.total_loss;
    }
    return a < b;
  });
  for (size_t i : out.frontier) out.candidates[i].on_frontier = true;
  return out;
}

TEST(OptimizerTest, MatchesTheApplyThenComputeOracle) {
  // Seeded random databases: row sizes 1 to 6, low ids drawn more often,
  // so supports spread into several groups and singleton rows (which
  // make some support cuts unrealizable) are common.
  Rng rng(18);
  size_t feasible = 0, infeasible = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = static_cast<size_t>(rng.UniformInt(4, 24));
    const size_t m = static_cast<size_t>(rng.UniformInt(10, 160));
    Database db(n);
    for (size_t t = 0; t < m; ++t) {
      Transaction row(static_cast<size_t>(rng.UniformInt(1, 6)));
      for (ItemId& x : row) {
        const double u = rng.UniformDouble();
        x = static_cast<ItemId>(u * u * static_cast<double>(n));
      }
      ASSERT_TRUE(db.AddTransaction(std::move(row)).ok());
    }
    const uint64_t seed = rng.Next();
    const DefenseFrontier oracle = OracleSweep(db, seed);
    const std::string want = oracle.ToJson().Dump();
    for (size_t threads : {1, 4}) {
      auto got = Sweep(db, threads, seed);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(got->ToJson().Dump(), want)
          << "trial=" << trial << " threads=" << threads;
    }
    for (const CandidateScore& c : oracle.candidates) {
      ++(c.feasible ? feasible : infeasible);
    }
  }
  EXPECT_GT(feasible, 100u);
  EXPECT_GT(infeasible, 0u);
}

TEST(OptimizerTest, InfeasibleCandidatesCarryReasonsNotFailures) {
  Database db = FixtureDb();
  auto frontier = Sweep(db, 1);
  ASSERT_TRUE(frontier.ok());
  size_t infeasible = 0;
  for (const CandidateScore& c : frontier->candidates) {
    if (c.feasible) {
      EXPECT_TRUE(c.reason.empty());
    } else {
      ++infeasible;
      EXPECT_FALSE(c.reason.empty());
      EXPECT_FALSE(c.on_frontier);
    }
  }
  // The tight suppression tolerances are unreachable on this fixture.
  EXPECT_GT(infeasible, 0u);
}

TEST(OptimizerTest, CancellationPropagates) {
  Database db = FixtureDb();
  exec::ExecOptions eo;
  eo.threads = 2;
  exec::ExecContext ctx(eo);
  ctx.RequestCancel();
  auto frontier = RecommendDefense(db, OptimizerOptions{}, &ctx);
  ASSERT_FALSE(frontier.ok());
  EXPECT_TRUE(frontier.status().IsCancelled());
}

TEST(OptimizerTest, ToJsonDocumentShape) {
  Database db = FixtureDb();
  auto frontier = Sweep(db, 1);
  ASSERT_TRUE(frontier.ok());
  const std::string doc = frontier->ToJson().Dump();
  EXPECT_EQ(doc.find("{\"num_items\":"), 0u);
  EXPECT_NE(doc.find("\"baseline\":{\"expected_cracks\":"),
            std::string::npos);
  EXPECT_NE(doc.find("\"candidates\":["), std::string::npos);
  EXPECT_NE(doc.find("\"frontier\":["), std::string::npos);
  EXPECT_NE(doc.find("\"on_frontier\":true"), std::string::npos);
}

TEST(OptimizerTest, WorksWithoutContext) {
  // Null context: sequential sweep with options.seed.
  Database db = FixtureDb();
  OptimizerOptions options;
  options.seed = 7;
  auto a = RecommendDefense(db, options);
  auto b = Sweep(db, 1, 7);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->ToJson().Dump(), b->ToJson().Dump());
}

}  // namespace
}  // namespace anonsafe
