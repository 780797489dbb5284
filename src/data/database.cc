#include "data/database.h"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace anonsafe {

Status Database::AddTransaction(Transaction items) {
  if (items.empty()) {
    return Status::InvalidArgument("transaction must be non-empty");
  }
  std::sort(items.begin(), items.end());
  items.erase(std::unique(items.begin(), items.end()), items.end());
  if (items.back() >= num_items_) {
    return Status::InvalidArgument(
        "item id " + std::to_string(items.back()) +
        " outside domain of size " + std::to_string(num_items_));
  }
  AddTransactionUnchecked(items);
  return Status::OK();
}

void Database::AddTransactionUnchecked(std::span<const ItemId> items) {
  assert(!items.empty());
  assert(std::is_sorted(items.begin(), items.end()));
  assert(std::adjacent_find(items.begin(), items.end()) == items.end());
  assert(items.back() < num_items_);
  items_.insert(items_.end(), items.begin(), items.end());
  offsets_.push_back(items_.size());
}

void Database::Reserve(size_t num_transactions, size_t total_size) {
  offsets_.reserve(offsets_.size() + num_transactions);
  items_.reserve(items_.size() + total_size);
}

void Database::ExtendDomain(size_t num_items) {
  num_items_ = std::max(num_items_, num_items);
}

Result<Database> Database::FromTransactions(
    size_t num_items, std::vector<Transaction> transactions) {
  Database db(num_items);
  for (auto& t : transactions) {
    ANONSAFE_RETURN_IF_ERROR(db.AddTransaction(std::move(t)));
  }
  return db;
}

std::string Database::DebugString() const {
  std::ostringstream oss;
  oss << "Database{n=" << num_items_ << ", m=" << num_transactions()
      << ", occurrences=" << TotalSize() << "}";
  return oss.str();
}

ItemIndex ItemIndex::Build(const Database& db) {
  assert(db.num_transactions() <= UINT32_MAX);
  const size_t n = db.num_items();
  const size_t m = db.num_transactions();
  ItemIndex index;
  index.first_.assign(n + 1, 0);
  index.row_sizes_.resize(m);
  for (size_t t = 0; t < m; ++t) {
    const std::span<const ItemId> row = db.transaction(t);
    index.row_sizes_[t] = static_cast<RowId>(row.size());
    for (ItemId x : row) ++index.first_[x + 1];
  }
  for (size_t x = 0; x < n; ++x) index.first_[x + 1] += index.first_[x];
  // Filling rows in ascending order keeps every holders list ascending.
  std::vector<size_t> next(index.first_.begin(), index.first_.end() - 1);
  index.rows_.resize(db.TotalSize());
  for (size_t t = 0; t < m; ++t) {
    for (ItemId x : db.transaction(t)) {
      index.rows_[next[x]++] = static_cast<RowId>(t);
    }
  }
  return index;
}

std::vector<SupportCount> ItemIndex::Supports() const {
  std::vector<SupportCount> supports(num_items());
  for (ItemId x = 0; x < num_items(); ++x) supports[x] = support(x);
  return supports;
}

std::vector<ItemIndex::RowId> ItemIndex::NonHolders(ItemId item) const {
  const std::span<const RowId> held = holders(item);
  std::vector<RowId> others;
  others.reserve(num_transactions() - held.size());
  auto h = held.begin();
  for (size_t t = 0; t < num_transactions(); ++t) {
    if (h != held.end() && *h == t) {
      ++h;
    } else {
      others.push_back(static_cast<RowId>(t));
    }
  }
  return others;
}

Result<Database> ConcatDatabases(
    const std::vector<const Database*>& parts) {
  if (parts.empty()) {
    return Status::InvalidArgument("need at least one database to pool");
  }
  const size_t n = parts.front()->num_items();
  for (const Database* part : parts) {
    if (part->num_items() != n) {
      return Status::InvalidArgument(
          "pooled databases must share one item domain (" +
          std::to_string(part->num_items()) + " vs " + std::to_string(n) +
          ")");
    }
  }
  Database out(n);
  for (const Database* part : parts) {
    for (size_t t = 0; t < part->num_transactions(); ++t) {
      out.AddTransactionUnchecked(part->transaction(t));
    }
  }
  return out;
}

}  // namespace anonsafe
