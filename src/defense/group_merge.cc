#include "defense/group_merge.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "defense/scheme.h"

namespace anonsafe {
namespace {

/// Size-weighted median support of groups [first, last] — the single
/// support minimizing Σ size·|support - s| over the run.
SupportCount WeightedMedianSupport(const FrequencyGroups& groups,
                                   size_t first, size_t last) {
  size_t total = 0;
  for (size_t g = first; g <= last; ++g) total += groups.group_size(g);
  size_t half = (total + 1) / 2;
  size_t seen = 0;
  for (size_t g = first; g <= last; ++g) {
    seen += groups.group_size(g);
    if (seen >= half) return groups.group_support(g);
  }
  return groups.group_support(last);
}

/// The merge core: every run of groups whose consecutive gaps are all
/// below `min_gap` collapses onto the run's weighted median support.
Result<defense::DefensePlan> MergeBelowGapPlan(const FrequencyTable& table,
                                               double min_gap) {
  if (min_gap < 0.0) {
    return Status::InvalidArgument("gap threshold must be >= 0");
  }
  FrequencyGroups groups = FrequencyGroups::Build(table);

  defense::DefensePlan plan;
  plan.groups_before = groups.num_groups();
  plan.merged_gap = min_gap;
  plan.items_before = table.num_items();
  plan.items_after = table.num_items();
  plan.new_supports.resize(table.num_items());

  uint64_t total_support = 0;
  for (ItemId x = 0; x < table.num_items(); ++x) {
    total_support += table.support(x);
  }

  size_t run_start = 0;
  size_t groups_after = 0;
  for (size_t g = 0; g < groups.num_groups(); ++g) {
    // Gaps are compared in frequency units; min_gap == 0 never merges.
    bool run_ends =
        g + 1 == groups.num_groups() ||
        groups.group_frequency(g + 1) - groups.group_frequency(g) >= min_gap;
    if (!run_ends) continue;
    SupportCount merged = WeightedMedianSupport(groups, run_start, g);
    for (size_t h = run_start; h <= g; ++h) {
      for (ItemId x : groups.group_items(h)) {
        plan.new_supports[x] = merged;
        uint64_t old_support = groups.group_support(h);
        plan.l1_distortion += old_support > merged ? old_support - merged
                                                   : merged - old_support;
      }
    }
    ++groups_after;
    run_start = g + 1;
  }
  plan.groups_after = groups_after;
  plan.relative_distortion =
      total_support == 0
          ? 0.0
          : static_cast<double>(plan.l1_distortion) /
                static_cast<double>(total_support);
  return plan;
}

/// The tolerance core: bisect the gap threshold for the smallest-
/// distortion merge whose perturbed profile passes the chosen safety
/// criterion at tolerance τ.
Result<defense::DefensePlan> ToleranceSearchPlan(const FrequencyTable& table,
                                                 double tolerance,
                                                 bool point_valued,
                                                 size_t iters) {
  if (!(tolerance > 0.0) || tolerance > 1.0) {
    return Status::InvalidArgument("tolerance must lie in (0, 1]");
  }
  const double budget = tolerance * static_cast<double>(table.num_items());
  if (budget < 1.0) {
    return Status::FailedPrecondition(
        "tolerance budget below one crack; even a single frequency group "
        "leaks one expected crack (Lemma 1)");
  }
  FrequencyGroups original = FrequencyGroups::Build(table);

  auto passes = [&](const defense::DefensePlan& plan) -> Result<bool> {
    ANONSAFE_ASSIGN_OR_RETURN(
        FrequencyTable merged,
        FrequencyTable::FromSupports(plan.new_supports,
                                     table.num_transactions()));
    FrequencyGroups groups = FrequencyGroups::Build(merged);
    if (point_valued) {
      return static_cast<double>(groups.num_groups()) <= budget;
    }
    // Recipe step-7 criterion: interval O-estimate at the *new* delta_med.
    // Computed structurally: candidate count of every item via stabbing.
    double delta = groups.MedianGap();
    double oe = 0.0;
    for (size_t g = 0; g < groups.num_groups(); ++g) {
      double f = groups.group_frequency(g);
      size_t lo = 0, hi = 0;
      if (!groups.StabRange(std::max(0.0, f - delta),
                            std::min(1.0, f + delta), &lo, &hi)) {
        continue;
      }
      oe += static_cast<double>(groups.group_size(g)) /
            static_cast<double>(groups.RangeItemCount(lo, hi));
    }
    return oe <= budget;
  };

  // Bisect the gap threshold. `hi` merges everything (passes for
  // budget >= 1); `lo` = no merging.
  Summary gaps = original.GapSummary();
  double lo = 0.0;
  double hi = gaps.max * 2.0 + 2.0 / static_cast<double>(
                                         table.num_transactions());
  ANONSAFE_ASSIGN_OR_RETURN(defense::DefensePlan lo_plan,
                            MergeBelowGapPlan(table, lo));
  ANONSAFE_ASSIGN_OR_RETURN(bool lo_passes, passes(lo_plan));
  if (lo_passes) return lo_plan;  // already safe, no perturbation

  ANONSAFE_ASSIGN_OR_RETURN(defense::DefensePlan hi_plan,
                            MergeBelowGapPlan(table, hi));
  ANONSAFE_ASSIGN_OR_RETURN(bool hi_passes, passes(hi_plan));
  if (!hi_passes) {
    return Status::FailedPrecondition(
        "even a full merge cannot reach the tolerance");
  }
  for (size_t iter = 0; iter < iters; ++iter) {
    double mid = (lo + hi) / 2.0;
    ANONSAFE_ASSIGN_OR_RETURN(defense::DefensePlan mid_plan,
                              MergeBelowGapPlan(table, mid));
    ANONSAFE_ASSIGN_OR_RETURN(bool ok, passes(mid_plan));
    if (ok) {
      hi = mid;
      hi_plan = std::move(mid_plan);
    } else {
      lo = mid;
    }
  }
  return hi_plan;
}

}  // namespace

Result<defense::DefenseEdits> DecideSupportChanges(
    const ItemIndex& index, const std::vector<SupportCount>& new_supports,
    Rng* rng) {
  using RowId = ItemIndex::RowId;
  const size_t n = index.num_items();
  const size_t m = index.num_transactions();
  if (new_supports.size() != n) {
    return Status::InvalidArgument("support vector size mismatch");
  }
  for (SupportCount s : new_supports) {
    if (s > m) {
      return Status::InvalidArgument(
          "target support exceeds the number of transactions");
    }
  }
  ANONSAFE_ASSIGN_OR_RETURN(FrequencyTable table,
                            FrequencyTable::FromSupports(index.Supports(), m));

  // Edits are chosen item by item against the input rows: x's holders
  // are still the input rows holding x, because edits for earlier items
  // never touch x. Only the row sizes move, and the removal rule reads
  // them.
  std::vector<size_t> sizes(m);
  for (size_t t = 0; t < m; ++t) sizes[t] = index.row_size(t);
  defense::DefenseEdits edits;
  edits.first.resize(n + 1, 0);
  for (ItemId x = 0; x < n; ++x) {
    const SupportCount current = table.support(x);
    const SupportCount target = new_supports[x];
    edits.first[x + 1] = edits.first[x] + (target > current ? target - current
                                                            : current - target);
  }
  edits.rows.reserve(edits.first[n]);
  for (ItemId x = 0; x < n; ++x) {
    const SupportCount current = table.support(x);
    const SupportCount target = new_supports[x];
    if (current == target) continue;

    if (target > current) {
      const size_t need = target - current;
      std::vector<RowId> others = index.NonHolders(x);
      rng->Shuffle(&others);
      for (size_t i = 0; i < need; ++i) {
        edits.rows.push_back(others[i]);
        ++sizes[others[i]];
      }
    } else {
      const size_t need = current - target;
      const std::span<const RowId> held = index.holders(x);
      std::vector<RowId> holders(held.begin(), held.end());
      rng->Shuffle(&holders);
      size_t removed = 0;
      for (RowId t : holders) {
        if (removed == need) break;
        if (sizes[t] <= 1) continue;  // never empty a transaction
        edits.rows.push_back(t);
        --sizes[t];
        ++removed;
      }
      if (removed != need) {
        return Status::InvalidArgument(
            "cannot lower support of item " + std::to_string(x) +
            " without emptying transactions");
      }
    }
  }
  edits.supports = new_supports;
  edits.num_transactions = m;
  return edits;
}

Result<Database> ApplySupportChanges(
    const Database& db, const std::vector<SupportCount>& new_supports,
    Rng* rng) {
  ANONSAFE_ASSIGN_OR_RETURN(
      defense::DefenseEdits edits,
      DecideSupportChanges(ItemIndex::Build(db), new_supports, rng));
  return defense::WriteEdits(db, edits);
}

namespace defense {
namespace {

class GroupMergeScheme final : public DefenseScheme {
 public:
  const char* name() const override { return "group_merge"; }

  /// One gap threshold per distinct inter-group gap: the midpoint above
  /// gap i merges exactly the runs whose gaps are <= it, and the final
  /// threshold (the bisection's `hi`) merges everything. Capped at 8
  /// evenly spaced thresholds for large profiles.
  std::vector<DefenseParams> ParamSpace(
      const FrequencyTable& table) const override {
    FrequencyGroups groups = FrequencyGroups::Build(table);
    std::vector<DefenseParams> space;
    if (groups.num_groups() < 2) return space;
    std::vector<double> gaps = groups.FrequencyGaps();
    std::sort(gaps.begin(), gaps.end());
    gaps.erase(std::unique(gaps.begin(), gaps.end()), gaps.end());
    std::vector<double> thresholds;
    for (size_t i = 0; i + 1 < gaps.size(); ++i) {
      thresholds.push_back((gaps[i] + gaps[i + 1]) / 2.0);
    }
    thresholds.push_back(gaps.back() * 2.0 +
                         2.0 / static_cast<double>(table.num_transactions()));
    constexpr size_t kMaxThresholds = 8;
    const size_t n = thresholds.size();
    if (n <= kMaxThresholds) {
      for (double t : thresholds) {
        DefenseParams params;
        params.Set("gap", t);
        space.push_back(std::move(params));
      }
      return space;
    }
    for (size_t i = 0; i < kMaxThresholds; ++i) {
      DefenseParams params;
      params.Set("gap", thresholds[i * n / kMaxThresholds]);
      space.push_back(std::move(params));
    }
    return space;
  }

  Result<DefensePlan> Plan(const FrequencyTable& table,
                           const DefenseParams& params) const override {
    ANONSAFE_RETURN_IF_ERROR(internal::CheckAllowedParams(
        params, {"gap", "tolerance", "point_valued", "iters"}, name()));
    const double* gap = params.Find("gap");
    const double* tolerance = params.Find("tolerance");
    if ((gap != nullptr) == (tolerance != nullptr)) {
      return Status::InvalidArgument(
          "group_merge takes exactly one of 'gap' or 'tolerance'");
    }
    Result<DefensePlan> plan =
        gap != nullptr
            ? MergeBelowGapPlan(table, *gap)
            : ToleranceSearchPlan(
                  table, *tolerance, params.GetOr("point_valued", 0.0) != 0.0,
                  static_cast<size_t>(params.GetOr("iters", 24.0)));
    if (!plan.ok()) return plan.status();
    plan->scheme = name();
    plan->params = params;
    return plan;
  }

  Result<DefenseEdits> DecideEdits(const ItemIndex& index,
                                   const DefensePlan& plan,
                                   Rng* rng) const override {
    return DecideSupportChanges(index, plan.new_supports, rng);
  }
};

}  // namespace

namespace internal {

std::unique_ptr<DefenseScheme> MakeGroupMergeScheme() {
  return std::make_unique<GroupMergeScheme>();
}

/// Shared with the k-anonymity scheme (which bisects over the same
/// merge core): exposed through this internal hook instead of the
/// deprecated public wrapper.
Result<DefensePlan> MergeBelowGapPlanInternal(const FrequencyTable& table,
                                              double min_gap) {
  return MergeBelowGapPlan(table, min_gap);
}

}  // namespace internal
}  // namespace defense
}  // namespace anonsafe
