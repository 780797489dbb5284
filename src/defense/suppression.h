#ifndef ANONSAFE_DEFENSE_SUPPRESSION_H_
#define ANONSAFE_DEFENSE_SUPPRESSION_H_

#include <vector>

#include "data/database.h"
#include "data/frequency.h"
#include "defense/scheme.h"
#include "util/result.h"

namespace anonsafe {

/// Item-suppression defense.
///
/// The second defense lever (complementing the "group_merge" scheme):
/// instead of perturbing frequencies, remove the most exposed items from
/// the release entirely — the classic cell-suppression idea of the
/// statistical disclosure-control literature the paper cites ([17],
/// [11], [9]). Items whose per-item crack probability is highest
/// (frequency-unique items) are dropped greedily until the δ_med
/// interval O-estimate over the remaining items fits the tolerance.
///
/// Planning lives in the "suppression" scheme of the
/// `defense::DefenseScheme` registry (defense/scheme.h): Plan with
/// {tolerance, max_suppressed_fraction, rerank_batch}. This header keeps
/// the edit decision the scheme's Decide delegates to, and its
/// database-level applicator.

/// \brief Decides a suppression on the database `index` transposes:
/// each suppressed item is toggled off in all its holders, and the
/// transactions left empty are dropped (counted from the row sizes). The
/// domain keeps its size (suppressed items simply have support 0), so
/// item ids remain stable. InvalidArgument for an item outside the
/// domain.
Result<defense::DefenseEdits> DecideSuppression(
    const ItemIndex& index, const std::vector<ItemId>& suppressed);

/// \brief `DecideSuppression` on `db`'s index, then the row writer: the
/// defended database itself. Same errors.
Result<Database> ApplySuppression(const Database& db,
                                  const std::vector<ItemId>& suppressed);

}  // namespace anonsafe

#endif  // ANONSAFE_DEFENSE_SUPPRESSION_H_
