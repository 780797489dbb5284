#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "data/frequency.h"
#include "mining/miner.h"

namespace anonsafe {

SupportCount MiningOptions::AbsoluteThreshold(size_t num_transactions) const {
  double raw = min_support * static_cast<double>(num_transactions);
  auto threshold = static_cast<SupportCount>(std::ceil(raw - 1e-9));
  return threshold < 1 ? 1 : threshold;
}

Status ValidateMiningInputs(const Database& db,
                            const MiningOptions& options) {
  if (db.num_transactions() == 0) {
    return Status::InvalidArgument("cannot mine an empty database");
  }
  if (!(options.min_support > 0.0) || options.min_support > 1.0) {
    return Status::InvalidArgument("min_support must lie in (0, 1]");
  }
  return Status::OK();
}

namespace {

/// Generates level-(k+1) candidates from frequent level-k itemsets by the
/// classic prefix join, pruning candidates with an infrequent k-subset.
std::vector<Itemset> GenerateCandidates(
    const std::vector<Itemset>& frequent_k) {
  std::unordered_set<Itemset, ItemsetHash> frequent_set(frequent_k.begin(),
                                                        frequent_k.end());
  std::vector<Itemset> candidates;
  // frequent_k is sorted lexicographically, so equal (k-1)-prefixes are
  // adjacent; join every pair within a prefix block.
  size_t block_start = 0;
  const size_t k = frequent_k.empty() ? 0 : frequent_k[0].size();
  for (size_t i = 0; i <= frequent_k.size(); ++i) {
    bool block_ends =
        i == frequent_k.size() ||
        !std::equal(frequent_k[block_start].begin(),
                    frequent_k[block_start].end() - 1,
                    frequent_k[i].begin(), frequent_k[i].end() - 1);
    if (!block_ends) continue;
    for (size_t a = block_start; a < i; ++a) {
      for (size_t b = a + 1; b < i; ++b) {
        Itemset cand = frequent_k[a];
        cand.push_back(frequent_k[b].back());
        // Prune: every k-subset must be frequent. Subsets that drop one
        // of the first (k-1) positions are the only ones not already
        // known frequent by construction.
        bool pruned = false;
        for (size_t drop = 0; drop + 2 <= k + 1 && !pruned; ++drop) {
          Itemset sub;
          sub.reserve(k);
          for (size_t j = 0; j < cand.size(); ++j) {
            if (j != drop) sub.push_back(cand[j]);
          }
          if (frequent_set.find(sub) == frequent_set.end()) pruned = true;
        }
        if (!pruned) candidates.push_back(std::move(cand));
      }
    }
    block_start = i;
  }
  return candidates;
}

}  // namespace

Result<std::vector<FrequentItemset>> MineApriori(
    const Database& db, const MiningOptions& options) {
  ANONSAFE_RETURN_IF_ERROR(ValidateMiningInputs(db, options));
  const SupportCount threshold =
      options.AbsoluteThreshold(db.num_transactions());

  std::vector<FrequentItemset> result;

  // Level 1: one counting pass.
  ANONSAFE_ASSIGN_OR_RETURN(FrequencyTable table, FrequencyTable::Compute(db));
  std::vector<Itemset> frequent_k;
  for (ItemId x = 0; x < db.num_items(); ++x) {
    if (table.support(x) >= threshold) {
      frequent_k.push_back({x});
      result.push_back({{x}, table.support(x)});
    }
  }

  std::vector<bool> in_txn(db.num_items(), false);
  size_t level = 1;
  while (!frequent_k.empty()) {
    ++level;
    if (options.max_itemset_size != 0 && level > options.max_itemset_size) {
      break;
    }
    std::vector<Itemset> candidates = GenerateCandidates(frequent_k);
    if (candidates.empty()) break;

    // Counting pass: mark the transaction's items in a dense flag array,
    // then test each candidate with O(k) flag lookups.
    std::vector<SupportCount> counts(candidates.size(), 0);
    for (size_t t = 0; t < db.num_transactions(); ++t) {
      const std::span<const ItemId> txn = db.transaction(t);
      if (txn.size() < level) continue;
      for (ItemId x : txn) in_txn[x] = true;
      for (size_t c = 0; c < candidates.size(); ++c) {
        bool all = true;
        for (ItemId x : candidates[c]) {
          if (!in_txn[x]) {
            all = false;
            break;
          }
        }
        if (all) ++counts[c];
      }
      for (ItemId x : txn) in_txn[x] = false;
    }

    frequent_k.clear();
    for (size_t c = 0; c < candidates.size(); ++c) {
      if (counts[c] >= threshold) {
        result.push_back({candidates[c], counts[c]});
        frequent_k.push_back(std::move(candidates[c]));
      }
    }
    std::sort(frequent_k.begin(), frequent_k.end());
  }

  SortCanonical(&result);
  return result;
}

Result<std::vector<ItemId>> FrequentItems(const Database& db,
                                          double min_support) {
  MiningOptions options;
  options.min_support = min_support;
  ANONSAFE_RETURN_IF_ERROR(ValidateMiningInputs(db, options));
  const SupportCount threshold =
      options.AbsoluteThreshold(db.num_transactions());
  ANONSAFE_ASSIGN_OR_RETURN(FrequencyTable table, FrequencyTable::Compute(db));
  std::vector<ItemId> out;
  for (ItemId x = 0; x < db.num_items(); ++x) {
    if (table.support(x) >= threshold) out.push_back(x);
  }
  return out;
}

}  // namespace anonsafe
