#include <algorithm>
#include <memory>
#include <unordered_map>
#include <vector>

#include "data/frequency.h"
#include "mining/miner.h"

namespace anonsafe {
namespace {

/// One node of an FP-tree. Children are kept in a small hash map keyed by
/// item; header-table chaining links all nodes of one item.
struct FpNode {
  ItemId item = kInvalidItem;
  SupportCount count = 0;
  FpNode* parent = nullptr;
  FpNode* next_same_item = nullptr;  // header-table chain
  std::unordered_map<ItemId, std::unique_ptr<FpNode>> children;
};

/// An FP-tree over a fixed item ordering (descending global support).
class FpTree {
 public:
  explicit FpTree(size_t num_items)
      : root_(std::make_unique<FpNode>()), header_(num_items, nullptr),
        item_counts_(num_items, 0) {}

  /// Inserts a path of items (already filtered and ordered) with `count`.
  void Insert(const std::vector<ItemId>& path, SupportCount count) {
    FpNode* node = root_.get();
    for (ItemId x : path) {
      auto it = node->children.find(x);
      if (it == node->children.end()) {
        auto child = std::make_unique<FpNode>();
        child->item = x;
        child->parent = node;
        child->next_same_item = header_[x];
        header_[x] = child.get();
        it = node->children.emplace(x, std::move(child)).first;
      }
      it->second->count += count;
      node = it->second.get();
      item_counts_[x] += count;
    }
  }

  FpNode* header(ItemId x) const { return header_[x]; }
  SupportCount item_count(ItemId x) const { return item_counts_[x]; }
  size_t num_items() const { return header_.size(); }

  /// True when the tree is a single chain from the root (the FP-Growth
  /// single-path shortcut applies).
  bool IsSinglePath() const {
    const FpNode* node = root_.get();
    while (!node->children.empty()) {
      if (node->children.size() > 1) return false;
      node = node->children.begin()->second.get();
    }
    return true;
  }

  /// Items of the single path, root-side first, with their counts.
  std::vector<std::pair<ItemId, SupportCount>> SinglePathItems() const {
    std::vector<std::pair<ItemId, SupportCount>> out;
    const FpNode* node = root_.get();
    while (!node->children.empty()) {
      node = node->children.begin()->second.get();
      out.emplace_back(node->item, node->count);
    }
    return out;
  }

 private:
  std::unique_ptr<FpNode> root_;
  std::vector<FpNode*> header_;        // item -> chain of nodes
  std::vector<SupportCount> item_counts_;
};

class FpGrowthMiner {
 public:
  FpGrowthMiner(SupportCount threshold, size_t max_size)
      : threshold_(threshold), max_size_(max_size) {}

  void Mine(const FpTree& tree, std::vector<ItemId>* suffix,
            std::vector<FrequentItemset>* out) {
    if (max_size_ != 0 && suffix->size() >= max_size_) return;

    if (tree.IsSinglePath()) {
      MineSinglePath(tree.SinglePathItems(), *suffix, out);
      return;
    }

    // Process items in ascending global-count order (the standard
    // bottom-up header-table sweep).
    std::vector<ItemId> items;
    for (ItemId x = 0; x < tree.num_items(); ++x) {
      if (tree.item_count(x) >= threshold_) items.push_back(x);
    }
    std::sort(items.begin(), items.end(), [&](ItemId a, ItemId b) {
      return tree.item_count(a) < tree.item_count(b);
    });

    for (ItemId x : items) {
      suffix->push_back(x);
      FrequentItemset fi;
      fi.items.assign(suffix->begin(), suffix->end());
      std::sort(fi.items.begin(), fi.items.end());
      fi.support = tree.item_count(x);
      out->push_back(std::move(fi));

      if (max_size_ == 0 || suffix->size() < max_size_) {
        // Build x's conditional tree from its prefix paths.
        FpTree cond(tree.num_items());
        for (FpNode* node = tree.header(x); node != nullptr;
             node = node->next_same_item) {
          std::vector<ItemId> path;
          for (FpNode* up = node->parent; up && up->item != kInvalidItem;
               up = up->parent) {
            path.push_back(up->item);
          }
          std::reverse(path.begin(), path.end());
          if (!path.empty()) cond.Insert(path, node->count);
        }
        // Re-filter the conditional tree by the threshold: rebuild with
        // infrequent items dropped so recursion sees a clean tree.
        FpTree filtered(tree.num_items());
        bool any = false;
        for (FpNode* node = tree.header(x); node != nullptr;
             node = node->next_same_item) {
          std::vector<ItemId> path;
          for (FpNode* up = node->parent; up && up->item != kInvalidItem;
               up = up->parent) {
            if (cond.item_count(up->item) >= threshold_) {
              path.push_back(up->item);
            }
          }
          std::reverse(path.begin(), path.end());
          if (!path.empty()) {
            filtered.Insert(path, node->count);
            any = true;
          }
        }
        if (any) Mine(filtered, suffix, out);
      }
      suffix->pop_back();
    }
  }

 private:
  /// All subsets of a single path are frequent with the support of their
  /// deepest member; enumerate them directly.
  void MineSinglePath(
      const std::vector<std::pair<ItemId, SupportCount>>& path,
      const std::vector<ItemId>& suffix,
      std::vector<FrequentItemset>* out) {
    // Keep only path members meeting the threshold (counts are
    // non-increasing along the path).
    std::vector<std::pair<ItemId, SupportCount>> kept;
    for (const auto& [item, count] : path) {
      if (count >= threshold_) kept.emplace_back(item, count);
    }
    const size_t p = kept.size();
    if (p == 0) return;
    // Subsets are enumerated by bitmask; p is small in practice (tree
    // depth), but guard against pathological inputs.
    if (p > 24) return;  // would emit > 16M itemsets; refuse quietly
    for (uint64_t mask = 1; mask < (1ULL << p); ++mask) {
      FrequentItemset fi;
      SupportCount support = 0;
      for (size_t i = 0; i < p; ++i) {
        if (mask & (1ULL << i)) {
          fi.items.push_back(kept[i].first);
          support = kept[i].second;  // deepest selected member
        }
      }
      if (max_size_ != 0 && fi.items.size() + suffix.size() > max_size_) {
        continue;
      }
      fi.items.insert(fi.items.end(), suffix.begin(), suffix.end());
      std::sort(fi.items.begin(), fi.items.end());
      fi.support = support;
      out->push_back(std::move(fi));
    }
  }

  SupportCount threshold_;
  size_t max_size_;
};

}  // namespace

Result<std::vector<FrequentItemset>> MineFPGrowth(
    const Database& db, const MiningOptions& options) {
  ANONSAFE_RETURN_IF_ERROR(ValidateMiningInputs(db, options));
  const SupportCount threshold =
      options.AbsoluteThreshold(db.num_transactions());

  ANONSAFE_ASSIGN_OR_RETURN(FrequencyTable table, FrequencyTable::Compute(db));

  // Global item order: descending support (ties by id) — frequent items
  // near the root maximize path sharing.
  std::vector<ItemId> order;
  for (ItemId x = 0; x < db.num_items(); ++x) {
    if (table.support(x) >= threshold) order.push_back(x);
  }
  std::sort(order.begin(), order.end(), [&](ItemId a, ItemId b) {
    if (table.support(a) != table.support(b)) {
      return table.support(a) > table.support(b);
    }
    return a < b;
  });
  std::vector<size_t> rank(db.num_items(), SIZE_MAX);
  for (size_t i = 0; i < order.size(); ++i) rank[order[i]] = i;

  FpTree tree(db.num_items());
  for (size_t t = 0; t < db.num_transactions(); ++t) {
    std::vector<ItemId> path;
    for (ItemId x : db.transaction(t)) {
      if (rank[x] != SIZE_MAX) path.push_back(x);
    }
    std::sort(path.begin(), path.end(),
              [&](ItemId a, ItemId b) { return rank[a] < rank[b]; });
    if (!path.empty()) tree.Insert(path, 1);
  }

  std::vector<FrequentItemset> result;
  std::vector<ItemId> suffix;
  FpGrowthMiner miner(threshold, options.max_itemset_size);
  miner.Mine(tree, &suffix, &result);
  SortCanonical(&result);
  return result;
}

}  // namespace anonsafe
