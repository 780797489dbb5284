#include <gtest/gtest.h>

#include <sstream>

#include "data/database.h"
#include "data/fimi_io.h"
#include "data/frequency.h"
#include "data/sampling.h"
#include "util/rng.h"
#include "test_rows.h"

namespace anonsafe {
namespace {

Database BigMart() {
  // A 6-item example in the spirit of the paper's Figure 1: frequencies
  // 0.5, 0.4, 0.5, 0.5, 0.3, 0.5 over 10 transactions.
  Database db(6);
  auto add = [&](Transaction t) { EXPECT_TRUE(db.AddTransaction(t).ok()); };
  // supports: item0:5 item1:4 item2:5 item3:5 item4:3 item5:5
  add({0, 1, 2});
  add({0, 1, 3, 5});
  add({0, 2, 4});
  add({0, 3, 5});
  add({0, 1, 2, 4});
  add({1, 3, 5});
  add({2, 3, 4});
  add({2, 5});
  add({3, 5});
  add({0});  // placeholder; adjusted below
  return db;
}

// ---------------------------------------------------------------- Database

TEST(DatabaseTest, AddTransactionValidates) {
  Database db(3);
  EXPECT_TRUE(db.AddTransaction({0, 1}).ok());
  EXPECT_TRUE(db.AddTransaction({}).IsInvalidArgument());
  EXPECT_TRUE(db.AddTransaction({0, 3}).IsInvalidArgument());
  EXPECT_EQ(db.num_transactions(), 1u);
}

TEST(DatabaseTest, SortsAndDeduplicates) {
  Database db(5);
  ASSERT_TRUE(db.AddTransaction({4, 2, 2, 0, 4}).ok());
  EXPECT_EQ(Row(db, 0), (Transaction{0, 2, 4}));
}

TEST(DatabaseTest, TotalSizeAndContains) {
  Database db(4);
  ASSERT_TRUE(db.AddTransaction({0, 1}).ok());
  ASSERT_TRUE(db.AddTransaction({1, 2, 3}).ok());
  EXPECT_EQ(db.TotalSize(), 5u);
  EXPECT_TRUE(db.Contains(0, 1));
  EXPECT_FALSE(db.Contains(0, 2));
  EXPECT_TRUE(db.Contains(1, 3));
}

TEST(DatabaseTest, RejectedAddLeavesDatabaseUnchanged) {
  Database db(4);
  ASSERT_TRUE(db.AddTransaction({0, 1}).ok());
  ASSERT_TRUE(db.AddTransaction({3, 2}).ok());
  const std::vector<Transaction> before = {{0, 1}, {2, 3}};
  const std::vector<Transaction> rejected = {
      {},            // empty
      {0, 9},        // an id out of domain
      {9, 0, 9, 1},  // out of domain, caught after the sort and dedup
      {4, 4}};       // dedups to one out-of-domain id
  for (const Transaction& txn : rejected) {
    EXPECT_TRUE(db.AddTransaction(txn).IsInvalidArgument());
    EXPECT_EQ(db.num_transactions(), 2u);
    EXPECT_EQ(db.TotalSize(), 4u);
    EXPECT_EQ(Rows(db), before);
  }
  // The next accepted row lands right after the earlier ones.
  ASSERT_TRUE(db.AddTransaction({1}).ok());
  EXPECT_EQ(Rows(db), (std::vector<Transaction>{{0, 1}, {2, 3}, {1}}));
}

TEST(DatabaseTest, TotalSizeIsTheSumOfRowSizes) {
  Database empty(3);
  EXPECT_EQ(empty.num_transactions(), 0u);
  EXPECT_EQ(empty.TotalSize(), 0u);
  Rng rng(11);
  Database db(20);
  for (int t = 0; t < 50; ++t) {
    Transaction txn(static_cast<size_t>(rng.UniformInt(1, 12)));
    for (ItemId& x : txn) x = static_cast<ItemId>(rng.UniformUint64(20));
    ASSERT_TRUE(db.AddTransaction(txn).ok());
  }
  size_t sum = 0;
  for (size_t t = 0; t < db.num_transactions(); ++t) {
    sum += db.transaction(t).size();
  }
  EXPECT_EQ(db.TotalSize(), sum);
}

// --------------------------------------------------------------- ItemIndex

using RowIds = std::vector<ItemIndex::RowId>;

RowIds Holders(const ItemIndex& index, ItemId x) {
  const std::span<const ItemIndex::RowId> held = index.holders(x);
  return RowIds(held.begin(), held.end());
}

TEST(ItemIndexTest, EmptyDatabase) {
  const ItemIndex index = ItemIndex::Build(Database(3));
  EXPECT_EQ(index.num_items(), 3u);
  EXPECT_EQ(index.num_transactions(), 0u);
  for (ItemId x = 0; x < 3; ++x) {
    EXPECT_TRUE(index.holders(x).empty());
    EXPECT_TRUE(index.NonHolders(x).empty());
    EXPECT_EQ(index.support(x), 0u);
  }
  EXPECT_TRUE(ItemIndex::Build(Database(0)).Supports().empty());
}

TEST(ItemIndexTest, ItemNoRowHoldsHasEveryRowAsNonHolder) {
  auto db = Database::FromTransactions(4, {{0, 2}, {2, 3}, {0}});
  ASSERT_TRUE(db.ok());
  const ItemIndex index = ItemIndex::Build(*db);
  EXPECT_TRUE(index.holders(1).empty());
  EXPECT_EQ(index.NonHolders(1), (RowIds{0, 1, 2}));
  EXPECT_EQ(Holders(index, 0), (RowIds{0, 2}));
  EXPECT_EQ(index.NonHolders(0), (RowIds{1}));
  EXPECT_EQ(index.Supports(), (std::vector<SupportCount>{2, 0, 2, 1}));
}

TEST(ItemIndexTest, LastRowIsIndexed) {
  auto db = Database::FromTransactions(3, {{0}, {0, 1}, {1, 2}});
  ASSERT_TRUE(db.ok());
  const ItemIndex index = ItemIndex::Build(*db);
  EXPECT_EQ(Holders(index, 2), (RowIds{2}));
  EXPECT_EQ(Holders(index, 1), (RowIds{1, 2}));
  EXPECT_EQ(index.NonHolders(0), (RowIds{2}));
  EXPECT_EQ(index.row_size(2), 2u);
}

TEST(ItemIndexTest, ItemsOutsideEveryRow) {
  // The domain runs past the largest item any row holds.
  Database db(2);
  ASSERT_TRUE(db.AddTransaction({0, 1}).ok());
  ASSERT_TRUE(db.AddTransaction({1}).ok());
  db.ExtendDomain(5);
  const ItemIndex index = ItemIndex::Build(db);
  EXPECT_EQ(index.num_items(), 5u);
  for (ItemId x = 2; x < 5; ++x) {
    EXPECT_TRUE(index.holders(x).empty()) << x;
    EXPECT_EQ(index.NonHolders(x), (RowIds{0, 1})) << x;
  }
  EXPECT_EQ(Holders(index, 1), (RowIds{0, 1}));
}

TEST(ItemIndexTest, MatchesAScanOfEveryRow) {
  Rng rng(12);
  Database db(25);
  for (int t = 0; t < 80; ++t) {
    Transaction txn(static_cast<size_t>(rng.UniformInt(1, 8)));
    for (ItemId& x : txn) x = static_cast<ItemId>(rng.UniformUint64(20));
    ASSERT_TRUE(db.AddTransaction(txn).ok());
  }
  const ItemIndex index = ItemIndex::Build(db);
  ASSERT_EQ(index.num_transactions(), db.num_transactions());
  for (size_t t = 0; t < db.num_transactions(); ++t) {
    EXPECT_EQ(index.row_size(t), db.transaction(t).size());
  }
  for (ItemId x = 0; x < db.num_items(); ++x) {
    RowIds holders, others;
    for (size_t t = 0; t < db.num_transactions(); ++t) {
      (db.Contains(t, x) ? holders : others)
          .push_back(static_cast<ItemIndex::RowId>(t));
    }
    EXPECT_EQ(Holders(index, x), holders) << x;
    EXPECT_EQ(index.NonHolders(x), others) << x;
    EXPECT_EQ(index.support(x), holders.size()) << x;
  }
}

TEST(DatabaseTest, FromTransactionsPropagatesErrors) {
  auto bad = Database::FromTransactions(2, {{0}, {5}});
  EXPECT_FALSE(bad.ok());
  auto good = Database::FromTransactions(2, {{0}, {1, 0}});
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good->num_transactions(), 2u);
}

TEST(DatabaseTest, DebugStringMentionsCounts) {
  Database db(7);
  ASSERT_TRUE(db.AddTransaction({0, 1, 2}).ok());
  std::string s = db.DebugString();
  EXPECT_NE(s.find("n=7"), std::string::npos);
  EXPECT_NE(s.find("m=1"), std::string::npos);
}

// ---------------------------------------------------------- FrequencyTable

TEST(FrequencyTableTest, CountsSupports) {
  Database db = BigMart();
  auto table = FrequencyTable::Compute(db);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_transactions(), 10u);
  EXPECT_EQ(table->support(0), 6u);  // 5 listed + placeholder {0}
  EXPECT_EQ(table->support(1), 4u);
  EXPECT_EQ(table->support(4), 3u);
  EXPECT_DOUBLE_EQ(table->frequency(1), 0.4);
  EXPECT_DOUBLE_EQ(table->frequency(4), 0.3);
}

TEST(FrequencyTableTest, EmptyDatabaseFails) {
  Database db(3);
  EXPECT_TRUE(FrequencyTable::Compute(db).status().IsInvalidArgument());
}

TEST(FrequencyTableTest, FromSupportsValidates) {
  EXPECT_TRUE(FrequencyTable::FromSupports({1, 2}, 0)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(FrequencyTable::FromSupports({5}, 4)
                  .status()
                  .IsInvalidArgument());
  auto ok = FrequencyTable::FromSupports({0, 2, 4}, 4);
  ASSERT_TRUE(ok.ok());
  EXPECT_DOUBLE_EQ(ok->frequency(2), 1.0);
  EXPECT_DOUBLE_EQ(ok->frequency(0), 0.0);
}

// --------------------------------------------------------- FrequencyGroups

TEST(FrequencyGroupsTest, GroupsByEqualSupport) {
  auto table = FrequencyTable::FromSupports({5, 4, 5, 5, 3, 5}, 10);
  ASSERT_TRUE(table.ok());
  FrequencyGroups fg = FrequencyGroups::Build(*table);
  // Paper Section 3.2: groups {0,2,3,5} (0.5), {1} (0.4), {4} (0.3).
  ASSERT_EQ(fg.num_groups(), 3u);
  EXPECT_EQ(fg.group_support(0), 3u);
  EXPECT_EQ(fg.group_support(1), 4u);
  EXPECT_EQ(fg.group_support(2), 5u);
  EXPECT_EQ(fg.group_items(2), (std::vector<ItemId>{0, 2, 3, 5}));
  EXPECT_EQ(fg.group_of_item(4), 0u);
  EXPECT_EQ(fg.group_of_item(1), 1u);
  EXPECT_EQ(fg.group_of_item(3), 2u);
  EXPECT_EQ(fg.num_singleton_groups(), 2u);
  EXPECT_EQ(fg.group_size(2), 4u);
}

TEST(FrequencyGroupsTest, GapsAndMedian) {
  auto table = FrequencyTable::FromSupports({1, 3, 7, 8}, 10);
  ASSERT_TRUE(table.ok());
  FrequencyGroups fg = FrequencyGroups::Build(*table);
  std::vector<double> gaps = fg.FrequencyGaps();
  ASSERT_EQ(gaps.size(), 3u);
  EXPECT_NEAR(gaps[0], 0.2, 1e-12);
  EXPECT_NEAR(gaps[1], 0.4, 1e-12);
  EXPECT_NEAR(gaps[2], 0.1, 1e-12);
  EXPECT_NEAR(fg.MedianGap(), 0.2, 1e-12);
  Summary s = fg.GapSummary();
  EXPECT_NEAR(s.mean, 0.7 / 3.0, 1e-12);
  EXPECT_NEAR(s.min, 0.1, 1e-12);
  EXPECT_NEAR(s.max, 0.4, 1e-12);
}

TEST(FrequencyGroupsTest, SingleGroupHasNoGaps) {
  auto table = FrequencyTable::FromSupports({2, 2, 2}, 4);
  ASSERT_TRUE(table.ok());
  FrequencyGroups fg = FrequencyGroups::Build(*table);
  EXPECT_EQ(fg.num_groups(), 1u);
  EXPECT_TRUE(fg.FrequencyGaps().empty());
  EXPECT_EQ(fg.MedianGap(), 0.0);
}

TEST(FrequencyGroupsTest, RangeItemCountPrefixSums) {
  auto table = FrequencyTable::FromSupports({1, 1, 2, 3, 3, 3}, 4);
  ASSERT_TRUE(table.ok());
  FrequencyGroups fg = FrequencyGroups::Build(*table);
  ASSERT_EQ(fg.num_groups(), 3u);
  EXPECT_EQ(fg.RangeItemCount(0, 0), 2u);
  EXPECT_EQ(fg.RangeItemCount(0, 1), 3u);
  EXPECT_EQ(fg.RangeItemCount(0, 2), 6u);
  EXPECT_EQ(fg.RangeItemCount(1, 2), 4u);
  EXPECT_EQ(fg.RangeItemCount(2, 2), 3u);
}

TEST(FrequencyGroupsTest, StabRangeFindsContiguousGroups) {
  // Frequencies: 0.1, 0.25, 0.5, 0.75 over m=20.
  auto table = FrequencyTable::FromSupports({2, 5, 10, 15}, 20);
  ASSERT_TRUE(table.ok());
  FrequencyGroups fg = FrequencyGroups::Build(*table);
  size_t lo = 99, hi = 99;
  ASSERT_TRUE(fg.StabRange(0.0, 1.0, &lo, &hi));
  EXPECT_EQ(lo, 0u);
  EXPECT_EQ(hi, 3u);
  ASSERT_TRUE(fg.StabRange(0.2, 0.6, &lo, &hi));
  EXPECT_EQ(lo, 1u);
  EXPECT_EQ(hi, 2u);
  // Inclusive endpoints.
  ASSERT_TRUE(fg.StabRange(0.25, 0.5, &lo, &hi));
  EXPECT_EQ(lo, 1u);
  EXPECT_EQ(hi, 2u);
  // Point query.
  ASSERT_TRUE(fg.StabRange(0.5, 0.5, &lo, &hi));
  EXPECT_EQ(lo, 2u);
  EXPECT_EQ(hi, 2u);
  // Falls between groups.
  EXPECT_FALSE(fg.StabRange(0.3, 0.4, &lo, &hi));
  // Entirely below / above.
  EXPECT_FALSE(fg.StabRange(0.0, 0.05, &lo, &hi));
  EXPECT_FALSE(fg.StabRange(0.8, 1.0, &lo, &hi));
  // Inverted interval.
  EXPECT_FALSE(fg.StabRange(0.6, 0.2, &lo, &hi));
}

TEST(FrequencyGroupsTest, FindGroupBySupport) {
  auto table = FrequencyTable::FromSupports({2, 5, 10}, 20);
  ASSERT_TRUE(table.ok());
  FrequencyGroups fg = FrequencyGroups::Build(*table);
  EXPECT_EQ(fg.FindGroupBySupport(5), 1u);
  EXPECT_EQ(fg.FindGroupBySupport(10), 2u);
  EXPECT_EQ(fg.FindGroupBySupport(7), fg.num_groups());
}

// ----------------------------------------------------------------- FIMI IO

TEST(FimiIoTest, RoundTripThroughStreams) {
  Database db(4);
  ASSERT_TRUE(db.AddTransaction({0, 2}).ok());
  ASSERT_TRUE(db.AddTransaction({1, 2, 3}).ok());
  std::ostringstream out;
  ASSERT_TRUE(WriteFimi(db, out).ok());
  std::istringstream in(out.str());
  auto loaded = ReadFimi(in);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->database.num_transactions(), 2u);
  EXPECT_EQ(loaded->database.num_items(), 4u);
}

TEST(FimiIoTest, RemapsSparseLabels) {
  std::istringstream in("100 205\n205 999\n");
  auto loaded = ReadFimi(in);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->database.num_items(), 3u);
  EXPECT_EQ(loaded->labels, (std::vector<int64_t>{100, 205, 999}));
  // Item "205" maps to dense id 1 and appears in both transactions.
  auto table = FrequencyTable::Compute(loaded->database);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->support(1), 2u);
}

TEST(FimiIoTest, SkipsBlankLinesAndDeduplicates) {
  std::istringstream in("1 1 2\n\n\n3\n");
  auto loaded = ReadFimi(in);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->database.num_transactions(), 2u);
  EXPECT_EQ(loaded->database.transaction(0).size(), 2u);
}

TEST(FimiIoTest, RejectsMalformedInput) {
  std::istringstream bad_token("1 two 3\n");
  EXPECT_TRUE(ReadFimi(bad_token).status().IsInvalidArgument());
  std::istringstream negative("1 -2\n");
  EXPECT_TRUE(ReadFimi(negative).status().IsInvalidArgument());
}

TEST(FimiIoTest, FileRoundTrip) {
  Database db(3);
  ASSERT_TRUE(db.AddTransaction({0, 1, 2}).ok());
  const std::string path = testing::TempDir() + "/anonsafe_fimi_test.dat";
  ASSERT_TRUE(WriteFimiFile(db, path).ok());
  auto loaded = ReadFimiFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->database.num_transactions(), 1u);
  EXPECT_TRUE(ReadFimiFile("/no/such/file").status().IsIOError());
}

TEST(ConcatDatabasesTest, PoolsTransactionsInOrder) {
  Database a(3), b(3);
  ASSERT_TRUE(a.AddTransaction({0, 1}).ok());
  ASSERT_TRUE(b.AddTransaction({2}).ok());
  ASSERT_TRUE(b.AddTransaction({1, 2}).ok());
  auto pooled = ConcatDatabases({&a, &b});
  ASSERT_TRUE(pooled.ok());
  EXPECT_EQ(pooled->num_transactions(), 3u);
  EXPECT_EQ(Row(*pooled, 0), (Transaction{0, 1}));
  EXPECT_EQ(Row(*pooled, 2), (Transaction{1, 2}));
  // Supports add up across partners.
  auto table = FrequencyTable::Compute(*pooled);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->support(2), 2u);
}

TEST(ConcatDatabasesTest, KeepsPartOrder) {
  Database a(3), b(3), c(3);
  ASSERT_TRUE(a.AddTransaction({0}).ok());
  ASSERT_TRUE(a.AddTransaction({1, 2}).ok());
  ASSERT_TRUE(c.AddTransaction({2}).ok());
  ASSERT_TRUE(c.AddTransaction({0, 1, 2}).ok());
  auto forward = ConcatDatabases({&a, &b, &c});  // b is empty
  ASSERT_TRUE(forward.ok());
  EXPECT_EQ(Rows(*forward),
            (std::vector<Transaction>{{0}, {1, 2}, {2}, {0, 1, 2}}));
  EXPECT_EQ(forward->TotalSize(), a.TotalSize() + c.TotalSize());
  auto backward = ConcatDatabases({&c, &b, &a});
  ASSERT_TRUE(backward.ok());
  EXPECT_EQ(Rows(*backward),
            (std::vector<Transaction>{{2}, {0, 1, 2}, {0}, {1, 2}}));
}

TEST(ConcatDatabasesTest, Validation) {
  Database a(3), c(4);
  ASSERT_TRUE(a.AddTransaction({0}).ok());
  ASSERT_TRUE(c.AddTransaction({0}).ok());
  EXPECT_TRUE(ConcatDatabases({}).status().IsInvalidArgument());
  EXPECT_TRUE(ConcatDatabases({&a, &c}).status().IsInvalidArgument());
}

TEST(FimiIoTest, RandomDatabaseRoundTripsExactly) {
  // Property: write-then-read of any dense-id database reproduces the
  // transactions verbatim (dense ids are written in increasing order of
  // first appearance, which for a dense database is the identity).
  Rng rng(55);
  for (int trial = 0; trial < 10; ++trial) {
    const size_t n = 2 + rng.UniformUint64(20);
    Database db(n);
    // Guarantee every item appears, in id order first (identity remap).
    Transaction all(n);
    for (size_t i = 0; i < n; ++i) all[i] = static_cast<ItemId>(i);
    db.AddTransactionUnchecked(all);
    for (int t = 0; t < 30; ++t) {
      size_t size = 1 + rng.UniformUint64(n);
      std::vector<size_t> picks = rng.SampleWithoutReplacement(n, size);
      Transaction txn(picks.begin(), picks.end());
      db.AddTransactionUnchecked(std::move(txn));
    }
    std::ostringstream out;
    ASSERT_TRUE(WriteFimi(db, out).ok());
    std::istringstream in(out.str());
    auto loaded = ReadFimi(in);
    ASSERT_TRUE(loaded.ok());
    ASSERT_EQ(loaded->database.num_transactions(), db.num_transactions());
    for (size_t t = 0; t < db.num_transactions(); ++t) {
      EXPECT_EQ(Row(loaded->database, t), Row(db, t));
    }
  }
}

// ---------------------------------------------------------------- Sampling

TEST(SamplingTest, SampleSizeAndDomainPreserved) {
  Rng rng(5);
  Database db(10);
  for (int t = 0; t < 50; ++t) {
    ASSERT_TRUE(db.AddTransaction({static_cast<ItemId>(t % 10)}).ok());
  }
  auto sample = SampleTransactions(db, 20, &rng);
  ASSERT_TRUE(sample.ok());
  EXPECT_EQ(sample->num_transactions(), 20u);
  EXPECT_EQ(sample->num_items(), 10u);
}

TEST(SamplingTest, InvalidSizes) {
  Rng rng(5);
  Database db(2);
  ASSERT_TRUE(db.AddTransaction({0}).ok());
  EXPECT_TRUE(SampleTransactions(db, 0, &rng).status().IsInvalidArgument());
  EXPECT_TRUE(SampleTransactions(db, 2, &rng).status().IsInvalidArgument());
}

TEST(SamplingTest, FractionRoundsAndClamps) {
  Rng rng(5);
  Database db(2);
  for (int t = 0; t < 10; ++t) ASSERT_TRUE(db.AddTransaction({0}).ok());
  auto s = SampleFraction(db, 0.35, &rng);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->num_transactions(), 4u);  // round(3.5) = 4
  auto tiny = SampleFraction(db, 0.001, &rng);
  ASSERT_TRUE(tiny.ok());
  EXPECT_EQ(tiny->num_transactions(), 1u);  // at least one
  EXPECT_TRUE(SampleFraction(db, 0.0, &rng).status().IsInvalidArgument());
  EXPECT_TRUE(SampleFraction(db, 1.5, &rng).status().IsInvalidArgument());
}

TEST(SamplingTest, FullFractionIsWholeDatabase) {
  Rng rng(5);
  Database db(3);
  for (int t = 0; t < 7; ++t) {
    ASSERT_TRUE(db.AddTransaction({static_cast<ItemId>(t % 3)}).ok());
  }
  auto s = SampleFraction(db, 1.0, &rng);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->num_transactions(), 7u);
  // Sampling without replacement at 100% preserves supports exactly.
  auto full = FrequencyTable::Compute(db);
  auto samp = FrequencyTable::Compute(*s);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(samp.ok());
  for (ItemId x = 0; x < 3; ++x) {
    EXPECT_EQ(full->support(x), samp->support(x));
  }
}

}  // namespace
}  // namespace anonsafe
