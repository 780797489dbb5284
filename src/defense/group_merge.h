#ifndef ANONSAFE_DEFENSE_GROUP_MERGE_H_
#define ANONSAFE_DEFENSE_GROUP_MERGE_H_

#include <vector>

#include "data/database.h"
#include "data/frequency.h"
#include "defense/scheme.h"
#include "util/result.h"
#include "util/rng.h"

namespace anonsafe {

/// Support-perturbation defense.
///
/// The paper's analysis is deliberately about *pure* anonymization, which
/// never perturbs the data; its conclusion for datasets like CONNECT is
/// simply "think twice before releasing". This module answers the obvious
/// follow-up: if the recipe says the anonymized data is unsafe, what is
/// the *cheapest perturbation* that makes it safe? The lever is exactly
/// the quantity the attack exploits: distinct frequencies. Merging nearby
/// frequency groups onto a common support restores camouflage (Lemma 3's
/// g drops; interval O-estimates drop with it) at the cost of a measured
/// distortion in item supports.
///
/// The planning entry point is the "group_merge" scheme of the
/// `defense::DefenseScheme` registry (defense/scheme.h): Plan with
/// {gap} for a fixed gap threshold, {tolerance, point_valued, iters}
/// for the tolerance-driven bisection. This header keeps the edit
/// decision the scheme's Decide delegates to, and its database-level
/// applicator.

/// \brief Decides a support change on the database `index` transposes:
/// items gain occurrences in random transactions that lack them and lose
/// occurrences from random transactions that hold them (never emptying a
/// transaction). Items are visited in id order; each shuffles its
/// non-holders (to gain) or holders (to lose), ascending before the
/// shuffle, and takes the first it may edit. The edits realize
/// `new_supports` exactly and keep every transaction.
///
/// Fails with InvalidArgument on size mismatch, an empty database, or
/// unrealizable targets (support > m, or removals that would empty every
/// holder).
Result<defense::DefenseEdits> DecideSupportChanges(
    const ItemIndex& index, const std::vector<SupportCount>& new_supports,
    Rng* rng);

/// \brief `DecideSupportChanges` on `db`'s index, then the row writer:
/// the defended database itself. Same errors.
Result<Database> ApplySupportChanges(
    const Database& db, const std::vector<SupportCount>& new_supports,
    Rng* rng);

}  // namespace anonsafe

#endif  // ANONSAFE_DEFENSE_GROUP_MERGE_H_
