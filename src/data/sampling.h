#ifndef ANONSAFE_DATA_SAMPLING_H_
#define ANONSAFE_DATA_SAMPLING_H_

#include "data/database.h"
#include "util/result.h"
#include "util/rng.h"

namespace anonsafe {

/// \brief Draws a uniform transaction sample of exactly `k` transactions
/// without replacement, preserving the original domain.
///
/// This models the "similar data" a partner/competitor might hold
/// (Section 7.4): a subset of the owner's transactions over the same item
/// universe. Fails with InvalidArgument when `k` is 0 or exceeds the
/// number of transactions.
Result<Database> SampleTransactions(const Database& db, size_t k, Rng* rng);

/// \brief The size `SampleFraction` draws for a fraction of `m`
/// transactions: `round(fraction * m)`, clamped to [1, m] (0 when `m` is 0).
size_t SampleSize(size_t m, double fraction);

/// \brief Draws a sample of `SampleSize(m, fraction)` transactions.
/// `fraction` must lie in (0, 1].
Result<Database> SampleFraction(const Database& db, double fraction,
                                Rng* rng);

}  // namespace anonsafe

#endif  // ANONSAFE_DATA_SAMPLING_H_
