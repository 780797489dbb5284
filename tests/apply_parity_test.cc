// Parity of the defense applicators with the in-place versions they
// replaced. `OracleApplySupportChanges` and `OracleApplySuppression`
// below are those versions, kept verbatim as test-only oracles (only
// their row source changed: they copy `Rows(db)`): each edits a deep copy
// of every row in place, finding an item's holders by searching every
// row. On seeded random databases, with the plans of every registered
// scheme, with random support targets and with suppressions that empty
// rows, the current `Apply` must give the oracle's status code and
// message or its rows, and the edit decision alone (`Decide`,
// `DecideSupportChanges`, `DecideSuppression`) must give the oracle's
// status or the supports and row count `FrequencyTable::Compute` reads
// off the oracle's rows. Both must leave the `Rng` at the same point of
// its stream as the oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "data/database.h"
#include "data/frequency.h"
#include "defense/group_merge.h"
#include "defense/scheme.h"
#include "defense/suppression.h"
#include "util/rng.h"
#include "test_rows.h"

namespace anonsafe {
namespace {

Result<Database> OracleApplySupportChanges(
    const Database& db, const std::vector<SupportCount>& new_supports,
    Rng* rng) {
  if (new_supports.size() != db.num_items()) {
    return Status::InvalidArgument("support vector size mismatch");
  }
  const size_t m = db.num_transactions();
  for (SupportCount s : new_supports) {
    if (s > m) {
      return Status::InvalidArgument(
          "target support exceeds the number of transactions");
    }
  }

  std::vector<Transaction> txns(Rows(db));

  ANONSAFE_ASSIGN_OR_RETURN(FrequencyTable table,
                            FrequencyTable::Compute(db));

  for (ItemId x = 0; x < db.num_items(); ++x) {
    const SupportCount current = table.support(x);
    const SupportCount target = new_supports[x];
    if (current == target) continue;

    // Locate holders / non-holders once per changed item.
    std::vector<size_t> holders, others;
    for (size_t t = 0; t < m; ++t) {
      if (std::binary_search(txns[t].begin(), txns[t].end(), x)) {
        holders.push_back(t);
      } else {
        others.push_back(t);
      }
    }

    if (target > current) {
      size_t need = target - current;
      rng->Shuffle(&others);
      if (others.size() < need) {
        return Status::Internal("support accounting out of sync");
      }
      for (size_t i = 0; i < need; ++i) {
        Transaction& txn = txns[others[i]];
        txn.insert(std::upper_bound(txn.begin(), txn.end(), x), x);
      }
    } else {
      size_t need = current - target;
      rng->Shuffle(&holders);
      size_t removed = 0;
      for (size_t t : holders) {
        if (removed == need) break;
        if (txns[t].size() <= 1) continue;  // never empty a transaction
        auto it = std::lower_bound(txns[t].begin(), txns[t].end(), x);
        txns[t].erase(it);
        ++removed;
      }
      if (removed != need) {
        return Status::InvalidArgument(
            "cannot lower support of item " + std::to_string(x) +
            " without emptying transactions");
      }
    }
  }

  Database out(db.num_items());
  for (auto& t : txns) out.AddTransactionUnchecked(std::move(t));
  return out;
}

Result<Database> OracleApplySuppression(
    const Database& db, const std::vector<ItemId>& suppressed) {
  std::vector<bool> drop(db.num_items(), false);
  for (ItemId x : suppressed) {
    if (x >= db.num_items()) {
      return Status::InvalidArgument("suppressed item outside domain");
    }
    drop[x] = true;
  }
  Database out(db.num_items());
  for (const Transaction& txn : Rows(db)) {
    Transaction kept;
    kept.reserve(txn.size());
    for (ItemId x : txn) {
      if (!drop[x]) kept.push_back(x);
    }
    if (!kept.empty()) out.AddTransactionUnchecked(std::move(kept));
  }
  return out;
}

// Compares one result against the oracle's; returns "" when they agree.
std::string Diff(const Result<Database>& want, const Result<Database>& got) {
  if (want.ok() != got.ok() || (!want.ok() && want.status() != got.status())) {
    return "oracle " + want.status().ToString() + " vs " +
           got.status().ToString();
  }
  if (!want.ok()) return "";
  if (want->num_items() != got->num_items()) return "domain sizes differ";
  if (want->TotalSize() != got->TotalSize()) return "total sizes differ";
  if (Rows(*want) != Rows(*got)) return "rows differ";
  return "";
}

// Compares the edit decision against the oracle's database: the same
// status, or the supports and row count of the oracle's rows. Returns ""
// when they agree.
std::string DiffCounts(const Result<Database>& want,
                       const Result<defense::DefenseEdits>& got) {
  if (want.ok() != got.ok() || (!want.ok() && want.status() != got.status())) {
    return "oracle " + want.status().ToString() + " vs " +
           got.status().ToString();
  }
  if (!want.ok()) return "";
  if (want->num_transactions() != got->num_transactions) {
    return "row counts differ";
  }
  // Compute refuses an empty database; every support is 0 there.
  const std::vector<SupportCount> supports =
      want->num_transactions() == 0
          ? std::vector<SupportCount>(want->num_items(), 0)
          : FrequencyTable::Compute(*want)->supports();
  return supports == got->supports ? "" : "supports differ";
}

/// A database of `m` rows over `n` items. Row sizes run from 1 to 6 and
/// low ids are drawn more often, so supports spread out into several
/// frequency groups and singleton rows are common.
Database RandomDatabase(size_t n, size_t m, Rng* rng) {
  Database db(n);
  for (size_t t = 0; t < m; ++t) {
    Transaction row(static_cast<size_t>(rng->UniformInt(1, 6)));
    for (ItemId& x : row) {
      const double u = rng->UniformDouble();
      x = static_cast<ItemId>(u * u * static_cast<double>(n));
    }
    EXPECT_TRUE(db.AddTransaction(std::move(row)).ok());
  }
  return db;
}

/// Runs the oracle, the applicator and the decision alone on copies of
/// one stream.
void ExpectSupportChangeParity(const Database& db,
                               const std::vector<SupportCount>& targets,
                               uint64_t seed, const std::string& where) {
  Rng want_rng(seed), got_rng(seed), decide_rng(seed);
  const Result<Database> want =
      OracleApplySupportChanges(db, targets, &want_rng);
  EXPECT_EQ(Diff(want, ApplySupportChanges(db, targets, &got_rng)), "")
      << where;
  EXPECT_EQ(DiffCounts(want, DecideSupportChanges(ItemIndex::Build(db),
                                                  targets, &decide_rng)),
            "")
      << where << ": decision";
  const uint64_t want_next = want_rng.Next();
  EXPECT_EQ(want_next, got_rng.Next()) << where << ": Rng stream";
  EXPECT_EQ(want_next, decide_rng.Next()) << where << ": decision Rng stream";
}

void ExpectSuppressionParity(const Database& db,
                             const std::vector<ItemId>& suppressed,
                             const std::string& where) {
  const Result<Database> want = OracleApplySuppression(db, suppressed);
  EXPECT_EQ(Diff(want, ApplySuppression(db, suppressed)), "") << where;
  EXPECT_EQ(DiffCounts(want,
                       DecideSuppression(ItemIndex::Build(db), suppressed)),
            "")
      << where << ": decision";
}

TEST(ApplyParityTest, EveryRegisteredSchemePlan) {
  Rng rng(15);
  size_t compared = 0;
  for (int trial = 0; trial < 24; ++trial) {
    const size_t n = static_cast<size_t>(rng.UniformInt(3, 30));
    const size_t m = static_cast<size_t>(rng.UniformInt(5, 200));
    const Database db = RandomDatabase(n, m, &rng);
    const FrequencyTable table = *FrequencyTable::Compute(db);
    const ItemIndex index = ItemIndex::Build(db);
    for (const defense::DefenseScheme* scheme :
         defense::DefenseScheme::All()) {
      for (const defense::DefenseParams& params : scheme->ParamSpace(table)) {
        const Result<defense::DefensePlan> plan = scheme->Plan(table, params);
        if (!plan.ok()) continue;  // an infeasible rung has nothing to apply
        const std::string where = "trial=" + std::to_string(trial) + " " +
                                  scheme->name() + " " + params.ToString();
        const uint64_t seed = rng.Next();
        Rng want_rng(seed), got_rng(seed), decide_rng(seed);
        const Result<Database> want =
            std::string(scheme->name()) == "suppression"
                ? OracleApplySuppression(db, plan->suppressed)
                : OracleApplySupportChanges(db, plan->new_supports,
                                            &want_rng);
        const Result<Database> got = scheme->Apply(db, *plan, &got_rng);
        EXPECT_EQ(Diff(want, got), "") << where;
        EXPECT_EQ(DiffCounts(want, scheme->Decide(index, *plan, &decide_rng)),
                  "")
            << where << ": decision";
        const uint64_t want_next = want_rng.Next();
        EXPECT_EQ(want_next, got_rng.Next()) << where << ": Rng stream";
        EXPECT_EQ(want_next, decide_rng.Next())
            << where << ": decision Rng stream";
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, 100u);
}

TEST(ApplyParityTest, RandomSupportTargets) {
  // Targets anywhere in [0, m]: raises, cuts down to a few holders, and
  // cuts that run out of multi-item holders part way through.
  Rng rng(16);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = static_cast<size_t>(rng.UniformInt(2, 20));
    const size_t m = static_cast<size_t>(rng.UniformInt(1, 60));
    const Database db = RandomDatabase(n, m, &rng);
    const FrequencyTable table = *FrequencyTable::Compute(db);
    std::vector<SupportCount> targets = table.supports();
    for (SupportCount& s : targets) {
      if (rng.Bernoulli(0.4)) s = rng.UniformUint64(m + 1);
    }
    ExpectSupportChangeParity(db, targets, rng.Next(),
                              "trial=" + std::to_string(trial));
  }
}

TEST(ApplyParityTest, SupportChangeErrors) {
  Database db(3);
  ASSERT_TRUE(db.AddTransaction({0, 2}).ok());
  ASSERT_TRUE(db.AddTransaction({0, 2}).ok());
  ASSERT_TRUE(db.AddTransaction({2}).ok());
  ASSERT_TRUE(db.AddTransaction({1}).ok());
  // Cutting item 0 leaves rows 0 and 1 as {2}, so item 2 then has no
  // holder left to lose: the size check must see earlier items' edits.
  ExpectSupportChangeParity(db, {0, 1, 2}, 5, "cannot lower");
  Rng rng(5);
  EXPECT_EQ(ApplySupportChanges(db, {0, 1, 2}, &rng).status(),
            Status::InvalidArgument("cannot lower support of item 2 without "
                                    "emptying transactions"));
  ExpectSupportChangeParity(db, {2, 2}, 5, "size mismatch");
  ExpectSupportChangeParity(db, {2, 2, 2, 2}, 5, "size mismatch");
  ExpectSupportChangeParity(db, {5, 1, 3}, 5, "support > m");
  ExpectSupportChangeParity(Database(3), {0, 0, 0}, 5, "empty database");
}

TEST(ApplyParityTest, AnotherSchemesPlanIsRejectedBeforeAnyEdit) {
  Database db(2);
  ASSERT_TRUE(db.AddTransaction({0, 1}).ok());
  ASSERT_TRUE(db.AddTransaction({1}).ok());
  defense::DefensePlan plan;
  plan.scheme = "suppression";
  plan.new_supports = {1, 1};
  const Status want = Status::InvalidArgument(
      "plan was produced by scheme 'suppression', not 'group_merge'");
  const defense::DefenseScheme* merge =
      defense::DefenseScheme::Find("group_merge");
  Rng apply_rng(3), decide_rng(3), untouched(3);
  EXPECT_EQ(merge->Apply(db, plan, &apply_rng).status(), want);
  EXPECT_EQ(merge->Decide(ItemIndex::Build(db), plan, &decide_rng).status(),
            want);
  const uint64_t next = untouched.Next();
  EXPECT_EQ(apply_rng.Next(), next);
  EXPECT_EQ(decide_rng.Next(), next);
}

TEST(ApplyParityTest, SuppressionDropsEmptiedRows) {
  Rng rng(17);
  for (int trial = 0; trial < 100; ++trial) {
    const size_t n = static_cast<size_t>(rng.UniformInt(2, 20));
    const size_t m = static_cast<size_t>(rng.UniformInt(1, 60));
    const Database db = RandomDatabase(n, m, &rng);
    std::vector<ItemId> suppressed;
    for (ItemId x = 0; x < n; ++x) {
      if (rng.Bernoulli(0.3)) suppressed.push_back(x);
    }
    ExpectSuppressionParity(db, suppressed, "trial=" + std::to_string(trial));
  }
  Database db(3);
  ASSERT_TRUE(db.AddTransaction({0}).ok());
  ASSERT_TRUE(db.AddTransaction({1}).ok());
  ASSERT_TRUE(db.AddTransaction({0, 2}).ok());
  ExpectSuppressionParity(db, {0}, "emptied first row");
  EXPECT_EQ(ApplySuppression(db, {0})->num_transactions(), 2u);
  ExpectSuppressionParity(db, {0, 1, 2}, "every row emptied");
  EXPECT_EQ(ApplySuppression(db, {0, 1, 2})->num_transactions(), 0u);
  ExpectSuppressionParity(db, {3}, "outside domain");
  EXPECT_TRUE(ApplySuppression(db, {3}).status().IsInvalidArgument());
}

}  // namespace
}  // namespace anonsafe
