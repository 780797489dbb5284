#ifndef ANONSAFE_DATA_DATABASE_H_
#define ANONSAFE_DATA_DATABASE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "data/types.h"
#include "util/result.h"
#include "util/status.h"

namespace anonsafe {

/// \brief An in-memory transaction database over a dense item domain.
///
/// Matches the paper's Section 2.1 model: a database D is a sequence of
/// transactions <T_1, ..., T_m>, each a non-empty subset of the universe
/// I with |I| = n. The domain size is fixed at construction; items not
/// appearing in any transaction are still part of the domain (with
/// frequency 0).
///
/// Memory layout: CSR, as in `BipartiteGraph` — every transaction's
/// sorted, duplicate-free items sit back to back in one flat array, and
/// row t is `items[offsets[t], offsets[t+1])`. Rows are appended and read,
/// never edited in place.
class Database {
 public:
  /// Creates an empty database over the domain `{0, ..., num_items-1}`.
  explicit Database(size_t num_items) : num_items_(num_items) {}

  /// \brief Appends a transaction.
  ///
  /// The items are sorted and deduplicated. Fails with InvalidArgument if
  /// the transaction is empty or references an item outside the domain;
  /// a rejected transaction leaves the database unchanged.
  Status AddTransaction(Transaction items);

  /// \brief Appends a transaction known to be sorted, unique and in-domain.
  /// Used by generators on hot paths; validated only in debug builds.
  void AddTransactionUnchecked(std::span<const ItemId> items);

  /// \brief Pre-allocates room for `num_transactions` more rows holding
  /// `total_size` more items, so appends up to that size never reallocate.
  void Reserve(size_t num_transactions, size_t total_size);

  /// \brief Grows the domain to at least `num_items` items, for readers
  /// that discover the domain row by row.
  void ExtendDomain(size_t num_items);

  size_t num_items() const { return num_items_; }
  size_t num_transactions() const { return offsets_.size() - 1; }

  /// \brief Returns transaction `t` (0-based), sorted ascending. Requires
  /// `t` in range. The span is invalidated by the next append.
  std::span<const ItemId> transaction(size_t t) const {
    return {items_.data() + offsets_[t], items_.data() + offsets_[t + 1]};
  }

  /// \brief Total number of (transaction, item) occurrences.
  size_t TotalSize() const { return items_.size(); }

  /// \brief True if transaction `t` contains `item` (binary search).
  bool Contains(size_t t, ItemId item) const {
    const std::span<const ItemId> txn = transaction(t);
    return std::binary_search(txn.begin(), txn.end(), item);
  }

  /// \brief Builds a database directly from a vector of raw transactions.
  /// Each is validated as in `AddTransaction`.
  static Result<Database> FromTransactions(
      size_t num_items, std::vector<Transaction> transactions);

  /// \brief One-line human-readable summary ("n=130 m=67557 occ=...").
  std::string DebugString() const;

 private:
  size_t num_items_;
  std::vector<size_t> offsets_{0};  // num_transactions() + 1 entries
  std::vector<ItemId> items_;
};

/// \brief The item → rows transpose of a `Database`, in CSR: row x lists
/// the transactions holding item x, ascending, and the row sizes ride
/// along. Built in one pass over the rows; read-only afterwards, so one
/// index can serve any number of concurrent readers.
class ItemIndex {
 public:
  /// Transaction ids fit 32 bits, which halves the index.
  using RowId = uint32_t;

  /// \brief Transposes `db` (O(occurrences)). Requires fewer than 2^32
  /// transactions.
  static ItemIndex Build(const Database& db);

  size_t num_items() const { return first_.size() - 1; }
  size_t num_transactions() const { return row_sizes_.size(); }

  /// \brief The transactions holding `item`, ascending.
  std::span<const RowId> holders(ItemId item) const {
    return {rows_.data() + first_[item], rows_.data() + first_[item + 1]};
  }

  /// \brief Number of transactions holding `item`.
  SupportCount support(ItemId item) const {
    return first_[item + 1] - first_[item];
  }

  /// \brief Every item's support, in id order.
  std::vector<SupportCount> Supports() const;

  /// \brief The transactions not holding `item`, ascending (the
  /// complement of `holders(item)` in `[0, num_transactions())`).
  std::vector<RowId> NonHolders(ItemId item) const;

  /// \brief Number of items in transaction `t`.
  size_t row_size(size_t t) const { return row_sizes_[t]; }

 private:
  std::vector<size_t> first_{0};  // num_items() + 1 entries
  std::vector<RowId> rows_;
  std::vector<RowId> row_sizes_;  // num_transactions() entries
};

/// \brief Pools several databases over one shared item domain — the
/// paper's "mining for the common good" consortium scenario, where
/// partners contribute transaction sets over a common catalogue.
/// Transactions are concatenated in input order. Fails when the inputs
/// disagree on the domain size or the list is empty.
Result<Database> ConcatDatabases(const std::vector<const Database*>& parts);

}  // namespace anonsafe

#endif  // ANONSAFE_DATA_DATABASE_H_
