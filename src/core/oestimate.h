#ifndef ANONSAFE_CORE_OESTIMATE_H_
#define ANONSAFE_CORE_OESTIMATE_H_

#include <vector>

#include "adversary/adversary.h"
#include "belief/belief_function.h"
#include "data/frequency.h"
#include "util/result.h"

namespace anonsafe {
namespace exec {
class ExecContext;
}  // namespace exec

/// \brief Options of the O-estimate computation.
struct OEstimateOptions {
  /// Apply the degree-1 propagation of Figure 7 before reading outdegrees.
  /// The paper's convention after Section 5.2 ("whenever we refer to
  /// outdegrees, we assume that this algorithm has been applied").
  bool propagate = true;
};

/// \brief Result of an O-estimate computation.
struct OEstimateResult {
  /// OE(β, D) = Σ_x 1/O_x over the counted items (Figure 5; restricted to
  /// the compliant items I_C for α-compliant beliefs, Section 5.3).
  double expected_cracks = 0.0;

  /// Of which: items pinned by propagation (outdegree 1 after Figure 7).
  size_t forced_items = 0;

  /// Counted items with no candidate anonymized item at all (contribute
  /// 0 — a consistent mapping can never crack them).
  size_t dead_items = 0;

  /// True when the consistency graph admits no perfect matching (only
  /// possible under non-compliant beliefs).
  bool contradiction = false;

  /// Propagation fixpoint iterations (0 when propagation disabled).
  size_t propagation_passes = 0;

  /// Convenience: expected_cracks / n.
  double fraction = 0.0;
};

/// \brief Which items an O-estimate counts, and with what weight. The
/// consistency graph (and propagation) always involves *all* items; the
/// scope only changes the final crack-probability sum.
///
///  - `include` (optional, one entry per item): sum only items with
///    `include[x]` true — the α-compliant estimate of Section 5.3 (the
///    compliant mask) or a Lemma 2/4 "items of interest" estimate.
///    `fraction` stays relative to the full domain size.
///  - `weights` (optional, one entry per item, each aligned with the
///    item's stab range): a weighted adversary model. An alive item x
///    then contributes
///      p_x = w_x(g_x) / Σ_{g ∈ range(x)} w_x(g) · remaining(g)
///    instead of 1/O_x; the two agree when all weights are equal.
///    Forced items still count 1, dead items 0 — propagation is
///    structural and weight-independent. Masked-out items never
///    consult their weights.
///
/// The default scope is the paper's plain OE(β, D) over every item.
struct OEstimateScope {
  const std::vector<bool>* include = nullptr;
  const std::vector<adversary::ItemWeight>* weights = nullptr;
};

/// \brief Computes the O-estimate OE(β, D) of the expected number of
/// cracks for a general interval belief function (Section 5.1, Fig. 5).
///
/// Runs in O(n log n) on top of the observed frequency groups: each
/// item's candidate set is a contiguous group range, outdegrees are
/// prefix-sum lookups, and propagation (when enabled) refines them.
/// With a non-null `ctx` the graph build and the per-item outdegree
/// reads run on the pool; the reduction uses fixed per-chunk slots, so
/// the result is bit-identical for any thread count. A scope mask or
/// weight vector of the wrong size is InvalidArgument.
Result<OEstimateResult> ComputeOEstimate(const FrequencyGroups& observed,
                                         const BeliefFunction& belief,
                                         const OEstimateOptions& options = {},
                                         exec::ExecContext* ctx = nullptr,
                                         const OEstimateScope& scope = {});

/// \brief The same estimate from *precomputed* per-item stab ranges
/// (`observed.Stab` of each item's belief interval), skipping interval
/// stabbing and belief-function construction entirely. Bit-identical to
/// the belief overload fed the equivalent belief. This is the per-probe
/// core of the recipe's α bisection: the candidate intervals never
/// change across probes, only the compliant/displaced selection does,
/// so the ranges are cached once and replayed (see
/// `AlphaCompliancySweep::MakeProbeCache`).
Result<OEstimateResult> ComputeOEstimate(
    const FrequencyGroups& observed,
    const std::vector<ItemStabRange>& ranges,
    const OEstimateOptions& options = {}, exec::ExecContext* ctx = nullptr,
    const OEstimateScope& scope = {});

}  // namespace anonsafe

#endif  // ANONSAFE_CORE_OESTIMATE_H_
