#include "data/sampling.h"

#include <cmath>

namespace anonsafe {

Result<Database> SampleTransactions(const Database& db, size_t k, Rng* rng) {
  if (k == 0) {
    return Status::InvalidArgument("sample size must be positive");
  }
  if (k > db.num_transactions()) {
    return Status::InvalidArgument(
        "sample size " + std::to_string(k) + " exceeds database size " +
        std::to_string(db.num_transactions()));
  }
  std::vector<size_t> picks =
      rng->SampleWithoutReplacement(db.num_transactions(), k);
  Database out(db.num_items());
  for (size_t t : picks) out.AddTransactionUnchecked(db.transaction(t));
  return out;
}

size_t SampleSize(size_t m, double fraction) {
  size_t k = static_cast<size_t>(
      std::lround(fraction * static_cast<double>(m)));
  if (k == 0) k = 1;
  if (k > m) k = m;
  return k;
}

Result<Database> SampleFraction(const Database& db, double fraction,
                                Rng* rng) {
  if (!(fraction > 0.0) || fraction > 1.0) {
    return Status::InvalidArgument("fraction must lie in (0, 1]");
  }
  return SampleTransactions(db, SampleSize(db.num_transactions(), fraction),
                            rng);
}

}  // namespace anonsafe
