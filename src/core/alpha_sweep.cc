#include "core/alpha_sweep.h"

#include <algorithm>
#include <cmath>

#include "exec/exec.h"
#include "exec/scratch.h"
#include "obs/metrics.h"
#include "obs/scoped_timer.h"
#include "util/rng.h"

namespace anonsafe {

Result<AlphaCompliancySweep> AlphaCompliancySweep::Create(
    const FrequencyTable& truth, const BeliefFunction& base, size_t num_runs,
    uint64_t seed) {
  if (num_runs == 0) {
    return Status::InvalidArgument("need at least one run");
  }
  if (base.num_items() != truth.num_items()) {
    return Status::InvalidArgument("belief/truth domain size mismatch");
  }
  const size_t n = base.num_items();
  for (ItemId x = 0; x < n; ++x) {
    if (!base.IsCompliantFor(x, truth.frequency(x))) {
      return Status::FailedPrecondition(
          "base belief must be fully compliant (item " + std::to_string(x) +
          " is not)");
    }
  }

  Rng rng(seed);
  std::vector<BeliefInterval> displaced(n);
  for (ItemId x = 0; x < n; ++x) {
    displaced[x] = MakeNonCompliantInterval(base.interval(x),
                                            truth.frequency(x), &rng);
  }
  std::vector<std::vector<size_t>> orders;
  orders.reserve(num_runs);
  for (size_t r = 0; r < num_runs; ++r) {
    orders.push_back(rng.Permutation(n));
  }
  return AlphaCompliancySweep(base, std::move(displaced), std::move(orders));
}

Result<AlphaCompliantBelief> AlphaCompliancySweep::BeliefAt(
    size_t run, double alpha) const {
  if (run >= num_runs()) {
    return Status::OutOfRange("run " + std::to_string(run) +
                              " out of range (sweep has " +
                              std::to_string(num_runs()) + " runs)");
  }
  return BeliefAtImpl(run, alpha);
}

AlphaCompliantBelief AlphaCompliancySweep::BeliefAtImpl(size_t run,
                                                        double alpha) const {
  alpha = std::clamp(alpha, 0.0, 1.0);
  const size_t n = num_items();
  const auto num_compliant = static_cast<size_t>(
      std::llround(alpha * static_cast<double>(n)));
  const std::vector<size_t>& order = orders_[run];

  std::vector<BeliefInterval> intervals = base_.intervals();
  std::vector<bool> mask(n, true);
  for (size_t i = num_compliant; i < n; ++i) {
    size_t x = order[i];
    intervals[x] = displaced_[x];
    mask[x] = false;
  }
  AlphaCompliantBelief out;
  // Intervals were validated at construction; re-wrapping cannot fail.
  out.belief = *BeliefFunction::Create(std::move(intervals));
  out.compliant_mask = std::move(mask);
  out.requested_alpha = alpha;
  return out;
}

AlphaCompliancySweep::ProbeCache AlphaCompliancySweep::MakeProbeCache(
    const FrequencyGroups& observed) const {
  const size_t n = num_items();
  ProbeCache cache;
  cache.base.resize(n);
  cache.displaced.resize(n);
  for (ItemId x = 0; x < n; ++x) {
    const BeliefInterval& iv = base_.interval(x);
    cache.base[x] = observed.Stab(iv.lo, iv.hi);
    cache.displaced[x] = observed.Stab(displaced_[x].lo, displaced_[x].hi);
  }
  return cache;
}

namespace {

/// Narrows a run's compliant mask to the scope's items of interest.
void IntersectInclude(const std::vector<bool>* include,
                      std::vector<bool>* mask) {
  if (include == nullptr) return;
  for (size_t x = 0; x < mask->size(); ++x) {
    (*mask)[x] = (*mask)[x] && (*include)[x];
  }
}

/// The include mask is intersected item by item before any O-estimate
/// runs, so its size is checked here; ComputeOEstimate checks weights.
Status CheckInclude(const OEstimateScope& scope, size_t num_items) {
  if (scope.include != nullptr && scope.include->size() != num_items) {
    return Status::InvalidArgument("interest mask size mismatch");
  }
  return Status::OK();
}

}  // namespace

Result<double> AlphaCompliancySweep::RunOEstimateFromCache(
    const FrequencyGroups& observed, const ProbeCache& cache, size_t run,
    double alpha, const OEstimateScope& scope,
    const OEstimateOptions& options) const {
  const size_t n = num_items();
  alpha = std::clamp(alpha, 0.0, 1.0);
  const auto num_compliant =
      static_cast<size_t>(std::llround(alpha * static_cast<double>(n)));
  const std::vector<size_t>& order = orders_[run];

  // Select this run's per-item range in O(n): items before the cut keep
  // the base (compliant) range, the rest take the displaced one — the
  // only thing α changes. No interval is re-stabbed and no belief
  // function is materialized.
  exec::ScratchVec<ItemStabRange> ranges(n);
  std::copy(cache.base.begin(), cache.base.end(), ranges.begin());
  std::vector<bool> mask(n, true);
  for (size_t i = num_compliant; i < n; ++i) {
    const size_t x = order[i];
    ranges[x] = cache.displaced[x];
    mask[x] = false;
  }
  IntersectInclude(scope.include, &mask);
  obs::CountIf("anonsafe_stab_cache_hits_total", n);
  ANONSAFE_ASSIGN_OR_RETURN(
      OEstimateResult oe,
      ComputeOEstimate(observed, ranges.vec(), options, /*ctx=*/nullptr,
                       {&mask, scope.weights}));
  return oe.expected_cracks;
}

Result<double> AlphaCompliancySweep::AverageOEstimate(
    const FrequencyGroups& observed, const ProbeCache& cache, double alpha,
    const OEstimateOptions& options, exec::ExecContext* ctx,
    const OEstimateScope& scope) const {
  ANONSAFE_SCOPED_TIMER("core.alpha_sweep_avg");
  if (cache.base.size() != num_items() ||
      cache.displaced.size() != num_items()) {
    return Status::InvalidArgument("probe cache size mismatch");
  }
  ANONSAFE_RETURN_IF_ERROR(CheckInclude(scope, num_items()));
  ANONSAFE_ASSIGN_OR_RETURN(
      double sum, exec::ParallelSumChunks(
                      ctx, num_runs(), /*grain=*/1,
                      [&](size_t begin, size_t /*end*/) -> Result<double> {
                        return RunOEstimateFromCache(observed, cache, begin,
                                                     alpha, scope, options);
                      }));
  return sum / static_cast<double>(num_runs());
}

Result<double> AlphaCompliancySweep::AverageOEstimate(
    const FrequencyGroups& observed, double alpha,
    const OEstimateOptions& options, exec::ExecContext* ctx,
    const OEstimateScope& scope) const {
  ANONSAFE_SCOPED_TIMER("core.alpha_sweep_avg");
  ANONSAFE_RETURN_IF_ERROR(CheckInclude(scope, num_items()));
  // One run per chunk: runs are independent and each is a full graph
  // build, so the unit of work is already coarse. The inner O-estimate
  // runs sequentially (ctx = nullptr) — the parallelism lives here.
  ANONSAFE_ASSIGN_OR_RETURN(
      double sum,
      exec::ParallelSumChunks(
          ctx, num_runs(), /*grain=*/1,
          [&](size_t begin, size_t /*end*/) -> Result<double> {
            AlphaCompliantBelief ab = BeliefAtImpl(begin, alpha);
            IntersectInclude(scope.include, &ab.compliant_mask);
            ANONSAFE_ASSIGN_OR_RETURN(
                OEstimateResult oe,
                ComputeOEstimate(observed, ab.belief, options,
                                 /*ctx=*/nullptr,
                                 {&ab.compliant_mask, scope.weights}));
            return oe.expected_cracks;
          }));
  return sum / static_cast<double>(num_runs());
}

}  // namespace anonsafe
