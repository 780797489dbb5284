#include "anonymize/anonymizer.h"

#include <algorithm>
#include <numeric>

namespace anonsafe {

Anonymizer::Anonymizer(std::vector<ItemId> forward)
    : forward_(std::move(forward)), backward_(forward_.size()) {
  for (size_t x = 0; x < forward_.size(); ++x) {
    backward_[forward_[x]] = static_cast<ItemId>(x);
  }
}

Anonymizer Anonymizer::Identity(size_t num_items) {
  std::vector<ItemId> forward(num_items);
  std::iota(forward.begin(), forward.end(), 0);
  return Anonymizer(std::move(forward));
}

Anonymizer Anonymizer::Random(size_t num_items, Rng* rng) {
  std::vector<ItemId> forward(num_items);
  std::iota(forward.begin(), forward.end(), 0);
  rng->Shuffle(&forward);
  return Anonymizer(std::move(forward));
}

Result<Anonymizer> Anonymizer::FromMapping(std::vector<ItemId> mapping) {
  std::vector<bool> seen(mapping.size(), false);
  for (ItemId y : mapping) {
    if (y >= mapping.size() || seen[y]) {
      return Status::InvalidArgument("mapping is not a permutation");
    }
    seen[y] = true;
  }
  return Anonymizer(std::move(mapping));
}

Result<Database> Anonymizer::AnonymizeDatabase(const Database& db) const {
  if (db.num_items() != num_items()) {
    return Status::InvalidArgument(
        "database domain size " + std::to_string(db.num_items()) +
        " does not match mapping size " + std::to_string(num_items()));
  }
  Database out(num_items());
  out.Reserve(db.num_transactions(), db.TotalSize());
  Transaction mapped;
  for (size_t t = 0; t < db.num_transactions(); ++t) {
    mapped.clear();
    for (ItemId x : db.transaction(t)) mapped.push_back(forward_[x]);
    std::sort(mapped.begin(), mapped.end());
    out.AddTransactionUnchecked(mapped);
  }
  return out;
}

Itemset Anonymizer::AnonymizeItemset(const Itemset& items) const {
  Itemset out;
  out.reserve(items.size());
  for (ItemId x : items) out.push_back(forward_[x]);
  std::sort(out.begin(), out.end());
  return out;
}

Itemset Anonymizer::DeanonymizeItemset(const Itemset& items) const {
  Itemset out;
  out.reserve(items.size());
  for (ItemId y : items) out.push_back(backward_[y]);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<FrequentItemset> Anonymizer::DeanonymizePatterns(
    std::vector<FrequentItemset> patterns) const {
  for (auto& p : patterns) p.items = DeanonymizeItemset(p.items);
  SortCanonical(&patterns);
  return patterns;
}

}  // namespace anonsafe
