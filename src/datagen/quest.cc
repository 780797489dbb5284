#include "datagen/quest.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

namespace anonsafe {

Result<Database> GenerateQuestDatabase(const QuestParams& params) {
  if (params.num_items == 0 || params.num_transactions == 0) {
    return Status::InvalidArgument("domain and database must be non-empty");
  }
  if (params.avg_txn_size < 1.0 ||
      params.avg_txn_size > static_cast<double>(params.num_items)) {
    return Status::InvalidArgument("avg_txn_size outside [1, num_items]");
  }
  if (params.num_patterns == 0 || params.avg_pattern_size < 1.0) {
    return Status::InvalidArgument("need at least one non-empty pattern");
  }
  if (params.correlation < 0.0 || params.correlation > 1.0 ||
      params.corruption_mean < 0.0 || params.corruption_mean >= 1.0) {
    return Status::InvalidArgument("correlation/corruption outside range");
  }

  Rng rng(params.seed);

  // --- Latent patterns -----------------------------------------------
  // Each pattern inherits `correlation` of its items from its predecessor
  // and fills the rest with fresh uniform items, mimicking Quest's chained
  // pattern construction.
  std::vector<std::vector<ItemId>> patterns(params.num_patterns);
  std::vector<double> corruption(params.num_patterns);
  for (size_t p = 0; p < params.num_patterns; ++p) {
    size_t len = std::max<int64_t>(1, rng.Poisson(params.avg_pattern_size));
    len = std::min(len, params.num_items);
    std::set<ItemId> members;
    if (p > 0) {
      const auto& prev = patterns[p - 1];
      for (ItemId x : prev) {
        if (members.size() >= len) break;
        if (rng.Bernoulli(params.correlation)) members.insert(x);
      }
    }
    while (members.size() < len) {
      members.insert(static_cast<ItemId>(rng.UniformUint64(params.num_items)));
    }
    patterns[p].assign(members.begin(), members.end());
    rng.Shuffle(&patterns[p]);
    // Corruption level per pattern: exponential around the mean, capped.
    double c = params.corruption_mean > 0.0
                   ? std::min(0.9, rng.Exponential(1.0 /
                                                   params.corruption_mean))
                   : 0.0;
    corruption[p] = c;
  }

  // Zipf-like pattern popularity (rank-1 weights), sampled by CDF.
  std::vector<double> cdf(params.num_patterns);
  double acc = 0.0;
  for (size_t p = 0; p < params.num_patterns; ++p) {
    acc += 1.0 / static_cast<double>(p + 1);
    cdf[p] = acc;
  }
  auto pick_pattern = [&]() -> size_t {
    double u = rng.UniformDouble(0.0, acc);
    return static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
  };

  // --- Transactions ---------------------------------------------------
  Database db(params.num_items);
  for (size_t t = 0; t < params.num_transactions; ++t) {
    size_t target = std::max<int64_t>(1, rng.Poisson(params.avg_txn_size));
    target = std::min(target, params.num_items);
    std::set<ItemId> txn;
    size_t guard = 0;
    while (txn.size() < target && guard++ < 64) {
      const size_t p = pick_pattern();
      const auto& pat = patterns[p];
      // Keep a random prefix of the pattern (corrupted instantiation).
      size_t keep = pat.size();
      if (corruption[p] > 0.0) {
        while (keep > 1 && rng.Bernoulli(corruption[p])) --keep;
      }
      for (size_t i = 0; i < keep; ++i) txn.insert(pat[i]);
    }
    if (txn.empty()) {
      txn.insert(static_cast<ItemId>(rng.UniformUint64(params.num_items)));
    }
    Transaction out(txn.begin(), txn.end());
    db.AddTransactionUnchecked(out);
  }
  return db;
}

}  // namespace anonsafe
