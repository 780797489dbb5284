#ifndef ANONSAFE_DEFENSE_SCHEME_H_
#define ANONSAFE_DEFENSE_SCHEME_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "data/database.h"
#include "data/frequency.h"
#include "util/json.h"
#include "util/result.h"
#include "util/rng.h"

namespace anonsafe {
namespace defense {

/// \brief Named numeric parameters of one defense candidate.
///
/// Every scheme parameter is a double (integers are exact up to 2^53),
/// kept in insertion order so `ToJson`/`ToString` render the same bytes
/// for the same construction sequence. A params object round-trips
/// through JSON, which is what makes every frontier point replayable
/// from its recorded `{scheme, params}` pair alone.
struct DefenseParams {
  std::vector<std::pair<std::string, double>> values;

  /// Replaces an existing entry in place or appends a new one.
  void Set(const std::string& name, double value);
  /// nullptr when the parameter is absent.
  const double* Find(const std::string& name) const;
  double GetOr(const std::string& name, double fallback) const;
  /// InvalidArgument naming the parameter when absent.
  Result<double> Get(const std::string& name) const;

  /// "k=4,iters=24" — deterministic, for logs/CSV cells.
  std::string ToString() const;
  /// Object in insertion order; values via the shared shortest
  /// round-trip number rendering.
  json::Value ToJson() const;
  static Result<DefenseParams> FromJson(const json::Value& value);
};

/// \brief The unified plan every defense scheme produces: what the
/// defense will do to the release plus the analysis numbers computed
/// while planning (so downstream consumers never re-derive them).
///
/// Replaces the per-scheme `DefenseReport` / `SuppressionReport` pair:
/// a plan either perturbs supports (`new_supports` non-empty), drops
/// items (`suppressed` non-empty), or both vectors stay empty (identity
/// plan — the release was already safe at the requested parameters).
struct DefensePlan {
  std::string scheme;    ///< producing scheme (registry name)
  DefenseParams params;  ///< the exact parameters that produced it

  /// Per-item target supports; empty when the plan does not perturb.
  std::vector<SupportCount> new_supports;
  /// Items to drop from the release, in suppression order; empty when
  /// the plan does not suppress.
  std::vector<ItemId> suppressed;

  /// \name Planning analysis (group-merge family)
  /// @{
  size_t groups_before = 0;
  size_t groups_after = 0;
  uint64_t l1_distortion = 0;       ///< Σ |new_support - old_support|
  double relative_distortion = 0.0; ///< l1 / Σ old_support
  double merged_gap = 0.0;          ///< gap threshold actually applied
  /// @}

  /// \name Planning analysis (suppression family)
  /// The δ_med interval O-estimates the greedy suppression loop
  /// computes anyway — surfaced here instead of being dropped.
  /// @{
  size_t items_before = 0;
  size_t items_after = 0;
  double oe_before = 0.0;       ///< full-domain interval OE
  double oe_after = 0.0;        ///< residual sub-domain interval OE
  double occurrence_loss = 0.0; ///< fraction of occurrences removed
  /// Residual per-item risk ranking of the surviving sub-domain
  /// (original item ids, descending crack probability) — the final
  /// `SubdomainRisk` analysis, previously computed and discarded.
  std::vector<ItemId> residual_ranked;
  /// @}

  /// Compact summary (no per-item vectors): the document embedded per
  /// frontier candidate. Deterministic member order.
  json::Value ToJson() const;
};

/// \brief What a plan does to one concrete database, decided without
/// writing a row: item x is toggled in the transactions
/// `rows[first[x], first[x+1])` (added where absent, removed where
/// present), and the transactions the toggles leave empty are dropped.
/// `supports` and `num_transactions` describe the defended database, so
/// a caller that only counts never needs it written.
struct DefenseEdits {
  std::vector<size_t> first{0};  ///< num_items + 1 offsets into `rows`
  std::vector<ItemIndex::RowId> rows;
  std::vector<SupportCount> supports;  ///< per item, after the edits
  size_t num_transactions = 0;         ///< transactions after the edits
};

/// \brief The row writer: `db` with `edits` applied — every row
/// toggled, rows left empty dropped. `edits` must have been decided on
/// `ItemIndex::Build(db)`.
Database WriteEdits(const Database& db, const DefenseEdits& edits);

/// \brief The polymorphic defense interface (the sbdprivacylib
/// `Anonymization_scheme` shape): every defense is a named scheme that
/// can enumerate a parameter grid for a given release, plan a defense
/// at one parameter point, and apply a plan to a concrete database.
///
/// Registered implementations: `k_anonymity` (merge groups until the
/// smallest has size k), `group_merge` (merge runs below a gap
/// threshold, or bisect a gap to a tolerance), `suppression` (drop the
/// most exposed items). The optimizer enumerates candidates exclusively
/// through `All()` — it never names a concrete scheme.
class DefenseScheme {
 public:
  virtual ~DefenseScheme() = default;

  /// Registry name ("k_anonymity", "group_merge", "suppression").
  virtual const char* name() const = 0;

  /// \brief The candidate parameter grid for `table`, ordered from the
  /// mildest to the most aggressive defense. Deterministic: depends
  /// only on the frequency profile. May be empty (nothing to defend —
  /// e.g. fewer than two frequency groups).
  virtual std::vector<DefenseParams> ParamSpace(
      const FrequencyTable& table) const = 0;

  /// \brief Plans the defense at one parameter point. Pure planning —
  /// no database is modified. InvalidArgument on malformed or unknown
  /// parameters; FailedPrecondition when the requested safety level is
  /// unreachable for this scheme (the optimizer records such candidates
  /// as infeasible instead of failing the sweep).
  virtual Result<DefensePlan> Plan(const FrequencyTable& table,
                                   const DefenseParams& params) const = 0;

  /// \brief The edit decision: which transactions a plan toggles on the
  /// database `index` transposes, and the supports and transaction count
  /// that result — without writing a row. `rng` drives the choice of
  /// transactions for support-perturbation plans (same seed, same
  /// database — deterministic); suppression plans ignore it.
  /// InvalidArgument when the plan was produced by another scheme or
  /// cannot be realized on this database. `index` is only read, so one
  /// index serves concurrent decisions.
  Result<DefenseEdits> Decide(const ItemIndex& index, const DefensePlan& plan,
                              Rng* rng) const;

  /// \brief Realizes a plan on a concrete database: `Decide` on the
  /// database's index, then `WriteEdits`. Same errors as `Decide`.
  Result<Database> Apply(const Database& db, const DefensePlan& plan,
                         Rng* rng) const;

  /// \brief Every registered scheme, in fixed registry order
  /// (k_anonymity, group_merge, suppression). The instances are
  /// process-lifetime singletons.
  static const std::vector<const DefenseScheme*>& All();

  /// \brief Lookup by registry name; nullptr when unknown.
  static const DefenseScheme* Find(const std::string& name);

 private:
  /// `Decide` once the plan is known to be this scheme's.
  virtual Result<DefenseEdits> DecideEdits(const ItemIndex& index,
                                           const DefensePlan& plan,
                                           Rng* rng) const = 0;
};

namespace internal {
/// Factories for the built-in schemes, defined next to the legacy
/// entry points they replace (k_anonymity.cc, group_merge.cc,
/// suppression.cc). Called once by the registry.
std::unique_ptr<DefenseScheme> MakeKAnonymityScheme();
std::unique_ptr<DefenseScheme> MakeGroupMergeScheme();
std::unique_ptr<DefenseScheme> MakeSuppressionScheme();

/// Rejects parameters outside `allowed` with an InvalidArgument naming
/// the parameter and the scheme — shared by every built-in Plan().
Status CheckAllowedParams(const DefenseParams& params,
                          const std::vector<std::string>& allowed,
                          const char* scheme);

/// The gap-threshold merge core (defined in group_merge.cc), shared by
/// the group-merge scheme and the k-anonymity bisection — same support
/// vector either way, so the two schemes stay bit-consistent.
Result<DefensePlan> MergeBelowGapPlanInternal(const FrequencyTable& table,
                                              double min_gap);
}  // namespace internal

}  // namespace defense
}  // namespace anonsafe

#endif  // ANONSAFE_DEFENSE_SCHEME_H_
