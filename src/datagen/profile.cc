#include "datagen/profile.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>
#include <string>

namespace anonsafe {

Result<FrequencyProfile> FrequencyProfile::Create(
    size_t num_transactions, std::vector<ProfileGroup> groups) {
  if (num_transactions == 0) {
    return Status::InvalidArgument("num_transactions must be positive");
  }
  if (groups.empty()) {
    return Status::InvalidArgument("profile needs at least one group");
  }
  std::sort(groups.begin(), groups.end(),
            [](const ProfileGroup& a, const ProfileGroup& b) {
              return a.support < b.support;
            });
  for (size_t g = 0; g < groups.size(); ++g) {
    if (groups[g].size == 0) {
      return Status::InvalidArgument("group size must be positive");
    }
    if (groups[g].support == 0 || groups[g].support > num_transactions) {
      return Status::InvalidArgument(
          "group support " + std::to_string(groups[g].support) +
          " outside [1, " + std::to_string(num_transactions) + "]");
    }
    if (g > 0 && groups[g].support == groups[g - 1].support) {
      return Status::InvalidArgument("duplicate group support " +
                                     std::to_string(groups[g].support));
    }
  }
  return FrequencyProfile(num_transactions, std::move(groups));
}

size_t FrequencyProfile::num_items() const {
  size_t n = 0;
  for (const auto& g : groups_) n += g.size;
  return n;
}

std::vector<SupportCount> FrequencyProfile::ItemSupports() const {
  std::vector<SupportCount> supports;
  supports.reserve(num_items());
  for (const auto& g : groups_) {
    supports.insert(supports.end(), g.size, g.support);
  }
  return supports;
}

FrequencyGroups FrequencyProfile::ToFrequencyGroups() const {
  return FrequencyGroups::FromSupports(ItemSupports(), num_transactions_);
}

Result<FrequencyProfile> FrequencyProfile::Scaled(double factor) const {
  if (!(factor > 0.0)) {
    return Status::InvalidArgument("scale factor must be positive");
  }
  size_t new_m = static_cast<size_t>(std::llround(
      factor * static_cast<double>(num_transactions_)));
  if (new_m == 0) new_m = 1;
  if (groups_.size() > new_m) {
    return Status::InvalidArgument(
        "cannot fit " + std::to_string(groups_.size()) +
        " distinct supports into " + std::to_string(new_m) +
        " transactions");
  }
  std::vector<ProfileGroup> scaled = groups_;
  SupportCount prev = 0;
  for (auto& g : scaled) {
    double exact = static_cast<double>(g.support) * factor;
    SupportCount s = static_cast<SupportCount>(std::llround(exact));
    if (s <= prev) s = prev + 1;  // keep supports strictly increasing
    g.support = s;
    prev = s;
  }
  // Pull overflowing supports back under new_m from the top down.
  SupportCount cap = new_m;
  for (size_t g = scaled.size(); g-- > 0;) {
    if (scaled[g].support > cap) scaled[g].support = cap;
    if (cap == 0) {
      return Status::Internal("support re-spacing underflow");
    }
    cap = scaled[g].support - 1;
  }
  if (scaled.front().support == 0) {
    return Status::InvalidArgument("scaled profile would need support 0");
  }
  return Create(new_m, std::move(scaled));
}

Result<Database> GenerateDatabase(const FrequencyProfile& profile, Rng* rng) {
  const size_t m = profile.num_transactions();
  const std::vector<SupportCount> supports = profile.ItemSupports();

  uint64_t total_occurrences = 0;
  for (SupportCount s : supports) total_occurrences += s;
  if (total_occurrences < m) {
    return Status::InvalidArgument(
        "profile has fewer occurrences (" +
        std::to_string(total_occurrences) + ") than transactions (" +
        std::to_string(m) + "); some transaction would be empty");
  }

  std::vector<Transaction> txns(m);
  for (ItemId x = 0; x < supports.size(); ++x) {
    for (size_t t : rng->SampleWithoutReplacement(m, supports[x])) {
      txns[t].push_back(x);
    }
  }

  // Repair pass: move one occurrence from a rich transaction into each
  // empty one. Supports are untouched; only which transactions hold them
  // changes. A donor transaction always exists because total occurrences
  // >= m and the number of empties strictly decreases per move.
  std::vector<size_t> empties;
  for (size_t t = 0; t < m; ++t) {
    if (txns[t].empty()) empties.push_back(t);
  }
  if (!empties.empty()) {
    size_t donor = 0;
    for (size_t t : empties) {
      while (donor < m && txns[donor].size() < 2) ++donor;
      if (donor == m) {
        return Status::Internal("no donor transaction during repair");
      }
      txns[t].push_back(txns[donor].back());
      txns[donor].pop_back();
    }
  }

  Database db(supports.size());
  db.Reserve(m, total_occurrences);
  for (auto& t : txns) {
    std::sort(t.begin(), t.end());
    db.AddTransactionUnchecked(t);
  }
  return db;
}

Result<Database> GenerateUniformDatabase(size_t num_items,
                                         size_t num_transactions,
                                         size_t txn_size, Rng* rng) {
  if (txn_size == 0 || txn_size > num_items) {
    return Status::InvalidArgument("txn_size must lie in [1, num_items]");
  }
  Database db(num_items);
  for (size_t t = 0; t < num_transactions; ++t) {
    std::vector<size_t> picks =
        rng->SampleWithoutReplacement(num_items, txn_size);
    Transaction txn(picks.begin(), picks.end());
    db.AddTransactionUnchecked(txn);
  }
  return db;
}

Result<FrequencyProfile> MakeZipfProfile(size_t num_items,
                                         size_t num_transactions,
                                         double exponent,
                                         double max_frequency) {
  if (num_items == 0) {
    return Status::InvalidArgument("need at least one item");
  }
  if (!(exponent > 0.0)) {
    return Status::InvalidArgument("exponent must be positive");
  }
  if (!(max_frequency > 0.0) || max_frequency > 1.0) {
    return Status::InvalidArgument("max_frequency must lie in (0, 1]");
  }
  const double m = static_cast<double>(num_transactions);
  // Quantize ideal supports and histogram equal values into groups.
  std::map<SupportCount, size_t> histogram;
  for (size_t i = 0; i < num_items; ++i) {
    double f = max_frequency / std::pow(static_cast<double>(i + 1),
                                        exponent);
    auto support = static_cast<SupportCount>(std::llround(f * m));
    if (support == 0) support = 1;
    histogram[support] += 1;
  }
  std::vector<ProfileGroup> groups;
  groups.reserve(histogram.size());
  for (const auto& [support, size] : histogram) {
    groups.push_back({support, size});
  }
  return FrequencyProfile::Create(num_transactions, std::move(groups));
}

}  // namespace anonsafe
