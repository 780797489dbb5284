#include "powerset/pair_attack.h"

#include <algorithm>
#include <deque>
#include <string>
#include <vector>

namespace anonsafe {
namespace {

Status CheckDomains(const BipartiteGraph& graph,
                    const PairSupportMatrix& observed_pairs,
                    const PairBeliefFunction& pair_belief) {
  if (graph.num_items() != observed_pairs.num_items() ||
      graph.num_items() != pair_belief.num_items()) {
    return Status::InvalidArgument(
        "graph, pair supports and pair belief must share one domain");
  }
  return Status::OK();
}

}  // namespace

Result<PairPrunedGraph> PruneWithPairBeliefs(
    const BipartiteGraph& graph, const PairSupportMatrix& observed_pairs,
    const PairBeliefFunction& pair_belief) {
  ANONSAFE_RETURN_IF_ERROR(CheckDomains(graph, observed_pairs, pair_belief));
  const size_t n = graph.num_items();

  // Mutable domains: candidate anonymized items per original item.
  std::vector<std::vector<ItemId>> domain(n);
  for (ItemId x = 0; x < n; ++x) {
    const std::span<const ItemId> row = graph.anons_of_item(x);
    domain[x].assign(row.begin(), row.end());
  }

  // Constraint adjacency: for each item, its constrained partners.
  std::vector<std::vector<ItemId>> partners(n);
  for (const ItemPair& pair : pair_belief.ConstrainedPairs()) {
    partners[pair.a].push_back(pair.b);
    partners[pair.b].push_back(pair.a);
  }

  PairPrunedGraph out;

  // AC-3 over the pair constraints: revise x's domain against partner y.
  std::deque<std::pair<ItemId, ItemId>> queue;  // (x, y): revise x wrt y
  for (ItemId x = 0; x < n; ++x) {
    for (ItemId y : partners[x]) queue.emplace_back(x, y);
  }
  size_t safety = 0;
  // Each successful revision deletes >= 1 of the <= n^2 domain values and
  // enqueues <= n arcs, so pops are bounded by n^3 + initial arcs.
  const size_t max_revisions = n * n * n + 2 * n * n + 64;
  while (!queue.empty()) {
    if (++safety > max_revisions) {
      return Status::Internal("AC-3 failed to reach a fixpoint");
    }
    auto [x, y] = queue.front();
    queue.pop_front();
    const BeliefInterval iv = pair_belief.interval(x, y);
    bool revised = false;
    auto supported = [&](ItemId a) {
      for (ItemId b : domain[y]) {
        if (b == a) continue;  // 1-1 mapping: x and y need distinct anons
        if (iv.Contains(observed_pairs.frequency(a, b))) return true;
      }
      return false;
    };
    auto& dom = domain[x];
    size_t before = dom.size();
    dom.erase(std::remove_if(dom.begin(), dom.end(),
                             [&](ItemId a) { return !supported(a); }),
              dom.end());
    if (dom.size() != before) {
      revised = true;
      out.pruned_edges += before - dom.size();
    }
    if (revised) {
      ++out.revision_rounds;
      // Everything constrained with x may have relied on x's removed
      // values; re-revise those arcs.
      for (ItemId z : partners[x]) queue.emplace_back(z, x);
    }
  }

  // Rebuild an explicit graph from the surviving domains.
  std::vector<std::vector<ItemId>> items_of_anon(n);
  for (ItemId x = 0; x < n; ++x) {
    for (ItemId a : domain[x]) {
      items_of_anon[a].push_back(x);
    }
  }
  ANONSAFE_ASSIGN_OR_RETURN(
      out.graph, BipartiteGraph::FromAdjacency(n, std::move(items_of_anon)));
  return out;
}

namespace {

class ConstrainedEnumerator {
 public:
  ConstrainedEnumerator(const BipartiteGraph& graph,
                        const PairSupportMatrix& observed_pairs,
                        const PairBeliefFunction& pair_belief,
                        uint64_t max_matchings)
      : graph_(graph),
        pairs_(observed_pairs),
        belief_(pair_belief),
        n_(graph.num_items()),
        max_matchings_(max_matchings),
        anon_used_(n_, false),
        assigned_anon_(n_, kInvalidItem),
        crack_tally_(n_ + 1, 0.0) {
    // Assign items (right side) in ascending candidate-count order and
    // precompute, for each item, its already-assigned constrained
    // partners at that depth.
    order_.resize(n_);
    for (size_t x = 0; x < n_; ++x) order_[x] = static_cast<ItemId>(x);
    std::sort(order_.begin(), order_.end(), [&](ItemId p, ItemId q) {
      return graph_.item_outdegree(p) < graph_.item_outdegree(q);
    });
    std::vector<size_t> depth_of_item(n_);
    for (size_t d = 0; d < n_; ++d) depth_of_item[order_[d]] = d;
    earlier_partners_.resize(n_);
    for (const ItemPair& pair : belief_.ConstrainedPairs()) {
      ItemId first = pair.a, second = pair.b;
      if (depth_of_item[first] > depth_of_item[second]) {
        std::swap(first, second);
      }
      earlier_partners_[second].push_back(first);
    }
  }

  Status Run() { return Recurse(0, 0); }

  CrackDistribution Finish() {
    CrackDistribution out;
    out.num_matchings = num_matchings_;
    out.probability.assign(n_ + 1, 0.0);
    if (num_matchings_ > 0) {
      double total = static_cast<double>(num_matchings_);
      for (size_t c = 0; c <= n_; ++c) {
        out.probability[c] = crack_tally_[c] / total;
        out.expected += static_cast<double>(c) * out.probability[c];
      }
    }
    return out;
  }

 private:
  Status Recurse(size_t depth, size_t cracks) {
    if (depth == n_) {
      if (++num_matchings_ > max_matchings_) {
        return Status::OutOfRange("constrained enumeration over budget");
      }
      crack_tally_[cracks] += 1.0;
      return Status::OK();
    }
    ItemId x = order_[depth];
    for (ItemId a : graph_.anons_of_item(x)) {
      if (anon_used_[a]) continue;
      bool consistent = true;
      for (ItemId y : earlier_partners_[x]) {
        ItemId b = assigned_anon_[y];
        if (!belief_.interval(x, y).Contains(pairs_.frequency(a, b))) {
          consistent = false;
          break;
        }
      }
      if (!consistent) continue;
      anon_used_[a] = true;
      assigned_anon_[x] = a;
      Status st = Recurse(depth + 1, cracks + (a == x ? 1 : 0));
      assigned_anon_[x] = kInvalidItem;
      anon_used_[a] = false;
      ANONSAFE_RETURN_IF_ERROR(st);
    }
    return Status::OK();
  }

  const BipartiteGraph& graph_;
  const PairSupportMatrix& pairs_;
  const PairBeliefFunction& belief_;
  const size_t n_;
  const uint64_t max_matchings_;
  std::vector<ItemId> order_;
  std::vector<std::vector<ItemId>> earlier_partners_;
  std::vector<bool> anon_used_;
  std::vector<ItemId> assigned_anon_;
  std::vector<double> crack_tally_;
  uint64_t num_matchings_ = 0;
};

}  // namespace

Result<CrackDistribution> EnumerateConstrainedCrackDistribution(
    const BipartiteGraph& graph, const PairSupportMatrix& observed_pairs,
    const PairBeliefFunction& pair_belief, uint64_t max_matchings) {
  ANONSAFE_RETURN_IF_ERROR(CheckDomains(graph, observed_pairs, pair_belief));
  ConstrainedEnumerator enumerator(graph, observed_pairs, pair_belief,
                                   max_matchings);
  ANONSAFE_RETURN_IF_ERROR(enumerator.Run());
  return enumerator.Finish();
}

}  // namespace anonsafe
