#include "powerset/pair_belief.h"

#include <algorithm>
#include <cmath>

namespace anonsafe {

Result<PairSupportMatrix> PairSupportMatrix::Compute(const Database& db,
                                                     size_t max_items) {
  if (db.num_transactions() == 0) {
    return Status::InvalidArgument(
        "cannot compute pair supports of an empty database");
  }
  if (db.num_items() > max_items) {
    return Status::OutOfRange(
        "pair-support matrix limited to " + std::to_string(max_items) +
        " items, database has " + std::to_string(db.num_items()));
  }
  PairSupportMatrix out(db.num_items(), db.num_transactions());
  for (size_t t = 0; t < db.num_transactions(); ++t) {
    const std::span<const ItemId> txn = db.transaction(t);
    for (size_t i = 0; i < txn.size(); ++i) {
      for (size_t j = i; j < txn.size(); ++j) {
        // Includes the diagonal so support(x, x) is x's item support.
        out.counts_[out.Index(txn[i], txn[j])] += 1;
      }
    }
  }
  return out;
}

Status PairBeliefFunction::Constrain(ItemId x, ItemId y,
                                     BeliefInterval interval) {
  if (x >= num_items_ || y >= num_items_) {
    return Status::InvalidArgument("pair endpoint outside domain");
  }
  if (x == y) {
    return Status::InvalidArgument(
        "pair beliefs are for distinct items; use BeliefFunction for "
        "single-item intervals");
  }
  if (!(interval.lo <= interval.hi) || interval.lo < 0.0 ||
      interval.hi > 1.0) {
    return Status::InvalidArgument("invalid belief interval");
  }
  intervals_[ItemPair::Of(x, y)] = interval;
  return Status::OK();
}

BeliefInterval PairBeliefFunction::interval(ItemId x, ItemId y) const {
  auto it = intervals_.find(ItemPair::Of(x, y));
  if (it == intervals_.end()) return {0.0, 1.0};
  return it->second;
}

std::vector<ItemPair> PairBeliefFunction::ConstrainedPairs() const {
  std::vector<ItemPair> pairs;
  pairs.reserve(intervals_.size());
  for (const auto& [pair, interval] : intervals_) pairs.push_back(pair);
  return pairs;
}

Result<double> PairBeliefFunction::ComplianceFraction(
    const PairSupportMatrix& truth) const {
  if (truth.num_items() != num_items_) {
    return Status::InvalidArgument("pair belief/truth domain mismatch");
  }
  if (intervals_.empty()) return 1.0;
  size_t compliant = 0;
  for (const auto& [pair, interval] : intervals_) {
    if (interval.Contains(truth.frequency(pair.a, pair.b))) ++compliant;
  }
  return static_cast<double>(compliant) /
         static_cast<double>(intervals_.size());
}

Result<PairBeliefFunction> MakeCompliantPairBelief(
    const PairSupportMatrix& truth, size_t num_pairs, double delta) {
  if (delta < 0.0) {
    return Status::InvalidArgument("interval half-width must be >= 0");
  }
  const size_t n = truth.num_items();
  // Rank all supported pairs by (support desc, pair asc).
  std::vector<std::pair<SupportCount, ItemPair>> ranked;
  for (ItemId x = 0; x < n; ++x) {
    for (ItemId y = x + 1; y < n; ++y) {
      SupportCount s = truth.support(x, y);
      if (s >= 1) ranked.push_back({s, {x, y}});
    }
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& p, const auto& q) {
              if (p.first != q.first) return p.first > q.first;
              if (p.second.a != q.second.a) return p.second.a < q.second.a;
              return p.second.b < q.second.b;
            });
  if (ranked.size() > num_pairs) ranked.resize(num_pairs);

  PairBeliefFunction belief(n);
  for (const auto& [support, pair] : ranked) {
    double f = truth.frequency(pair.a, pair.b);
    ANONSAFE_RETURN_IF_ERROR(belief.Constrain(
        pair.a, pair.b,
        {std::max(0.0, f - delta), std::min(1.0, f + delta)}));
  }
  return belief;
}

Result<PairBeliefFunction> MakeRandomPairBelief(
    const PairSupportMatrix& truth, size_t num_pairs, double delta,
    SupportCount min_support, Rng* rng) {
  if (delta < 0.0) {
    return Status::InvalidArgument("interval half-width must be >= 0");
  }
  const size_t n = truth.num_items();
  std::vector<ItemPair> eligible;
  for (ItemId x = 0; x < n; ++x) {
    for (ItemId y = x + 1; y < n; ++y) {
      if (truth.support(x, y) >= min_support) eligible.push_back({x, y});
    }
  }
  rng->Shuffle(&eligible);
  if (eligible.size() > num_pairs) eligible.resize(num_pairs);

  PairBeliefFunction belief(n);
  for (const ItemPair& pair : eligible) {
    double f = truth.frequency(pair.a, pair.b);
    ANONSAFE_RETURN_IF_ERROR(belief.Constrain(
        pair.a, pair.b,
        {std::max(0.0, f - delta), std::min(1.0, f + delta)}));
  }
  return belief;
}

}  // namespace anonsafe
