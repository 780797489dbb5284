#ifndef ANONSAFE_ESTIMATOR_ESTIMATORS_H_
#define ANONSAFE_ESTIMATOR_ESTIMATORS_H_

#include <memory>

#include "core/oestimate.h"
#include "estimator/estimator.h"
#include "estimator/planner.h"
#include "graph/matching_sampler.h"
#include "util/result.h"

namespace anonsafe {

/// \brief Per-engine knobs bundled for `MakeEstimator`. Only the
/// sub-struct matching the chosen kind is read.
struct EstimatorConfig {
  PlannerOptions planner;      ///< kAuto / kExact
  OEstimateOptions oestimate;  ///< kOe
  SamplerOptions sampler;      ///< kSampler (whole-instance MCMC)
};

/// \brief Builds the estimator for `kind`:
///
///  - kAuto    → the block-decomposed planner (approximate fallbacks ok);
///  - kExact   → the planner with `require_exact` forced on;
///  - kOe      → the paper's O-estimate with degree-1 propagation;
///  - kSampler → the whole-instance MCMC matching sampler.
///
/// Never fails; invalid per-engine options surface from `Estimate`.
std::unique_ptr<CrackEstimator> MakeEstimator(EstimatorKind kind,
                                              const EstimatorConfig& config = {});

/// \brief The one check that estimator `kind` can evaluate the models
/// `adversary` binds: Unimplemented when the adversary produces weighted
/// models and `kind` is not kOe (the only engine that honours weights),
/// instead of silently dropping the weights. The recipe, `anonsafe plan`
/// and the engines themselves all ask it, so they reject with one message.
Status CheckAdversarySupported(
    EstimatorKind kind, const adversary::AdversaryDescription& adversary);

}  // namespace anonsafe

#endif  // ANONSAFE_ESTIMATOR_ESTIMATORS_H_
