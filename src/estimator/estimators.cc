#include "estimator/estimators.h"

#include <string>
#include <utility>
#include <vector>

namespace anonsafe {

const char* EstimatorKindName(EstimatorKind kind) {
  switch (kind) {
    case EstimatorKind::kAuto:
      return "auto";
    case EstimatorKind::kOe:
      return "oe";
    case EstimatorKind::kExact:
      return "exact";
    case EstimatorKind::kSampler:
      return "sampler";
  }
  return "unknown";
}

Result<EstimatorKind> ParseEstimatorKind(const std::string& name) {
  if (name == "auto") return EstimatorKind::kAuto;
  if (name == "oe") return EstimatorKind::kOe;
  if (name == "exact") return EstimatorKind::kExact;
  if (name == "sampler") return EstimatorKind::kSampler;
  return Status::InvalidArgument(
      "unknown estimator \"" + name +
      "\" (expected auto, oe, exact, or sampler)");
}

const char* BlockMethodName(BlockMethod method) {
  switch (method) {
    case BlockMethod::kSingleton:
      return "singleton";
    case BlockMethod::kCompleteBipartite:
      return "complete_bipartite";
    case BlockMethod::kChain:
      return "chain";
    case BlockMethod::kPermanent:
      return "permanent";
    case BlockMethod::kOEstimate:
      return "oestimate";
    case BlockMethod::kSampler:
      return "sampler";
  }
  return "unknown";
}

Result<BlockMethod> ParseBlockMethod(const std::string& name) {
  if (name == "singleton") return BlockMethod::kSingleton;
  if (name == "complete_bipartite") return BlockMethod::kCompleteBipartite;
  if (name == "chain") return BlockMethod::kChain;
  if (name == "permanent") return BlockMethod::kPermanent;
  if (name == "oestimate") return BlockMethod::kOEstimate;
  if (name == "sampler") return BlockMethod::kSampler;
  return Status::InvalidArgument("unknown block method \"" + name + "\"");
}

namespace {

/// Guard of the engines that see only the structural belief: a weighted
/// model or an interest mask would otherwise be silently ignored.
Status CheckUnscoped(EstimatorKind kind, const adversary::AdversaryModel& model,
                     const std::vector<bool>* interest) {
  adversary::AdversaryDescription producer;
  producer.name = model.adversary;
  producer.weighted = model.weighted();
  ANONSAFE_RETURN_IF_ERROR(CheckAdversarySupported(kind, producer));
  if (interest != nullptr) {
    return Status::InvalidArgument(
        std::string("items of interest need estimator=oe, not ") +
        EstimatorKindName(kind));
  }
  return Status::OK();
}

/// kAuto / kExact: the block-decomposed planner.
class PlannerEstimator : public CrackEstimator {
 public:
  PlannerEstimator(PlannerOptions options, EstimatorKind kind)
      : options_(std::move(options)), kind_(kind) {
    options_.require_exact = kind == EstimatorKind::kExact;
  }

  const char* name() const override { return EstimatorKindName(kind_); }

  Result<CrackEstimate> Estimate(
      const FrequencyGroups& observed, const adversary::AdversaryModel& model,
      exec::ExecContext* ctx,
      const std::vector<bool>* interest) const override {
    ANONSAFE_RETURN_IF_ERROR(CheckUnscoped(kind_, model, interest));
    return PlanAndEstimate(observed, model.belief, options_, ctx);
  }

 private:
  PlannerOptions options_;
  EstimatorKind kind_;
};

/// kOe: the paper's linear-time O-estimate (Fig. 5–7).
class OEstimateEstimator : public CrackEstimator {
 public:
  explicit OEstimateEstimator(OEstimateOptions options) : options_(options) {}

  const char* name() const override { return "oe"; }

  Result<CrackEstimate> Estimate(
      const FrequencyGroups& observed, const adversary::AdversaryModel& model,
      exec::ExecContext* ctx,
      const std::vector<bool>* interest) const override {
    const OEstimateScope scope{
        interest, model.weighted() ? &model.weights : nullptr};
    ANONSAFE_ASSIGN_OR_RETURN(
        OEstimateResult oe,
        ComputeOEstimate(observed, model.belief, options_, ctx, scope));
    CrackEstimate out;
    out.expected_cracks = oe.expected_cracks;
    out.exact = false;
    return out;
  }

 private:
  OEstimateOptions options_;
};

/// kSampler: whole-instance MCMC over consistent crack mappings.
class SamplerEstimator : public CrackEstimator {
 public:
  explicit SamplerEstimator(SamplerOptions options)
      : options_(std::move(options)) {}

  const char* name() const override { return "sampler"; }

  Result<CrackEstimate> Estimate(
      const FrequencyGroups& observed, const adversary::AdversaryModel& model,
      exec::ExecContext* ctx,
      const std::vector<bool>* interest) const override {
    ANONSAFE_RETURN_IF_ERROR(
        CheckUnscoped(EstimatorKind::kSampler, model, interest));
    ANONSAFE_ASSIGN_OR_RETURN(
        MatchingSampler sampler,
        MatchingSampler::Create(observed, model.belief, options_));
    std::vector<size_t> counts = sampler.SampleCrackCounts(ctx);
    double sum = 0.0;
    for (size_t c : counts) sum += static_cast<double>(c);
    CrackEstimate out;
    out.expected_cracks =
        counts.empty() ? 0.0 : sum / static_cast<double>(counts.size());
    out.exact = false;
    return out;
  }

 private:
  SamplerOptions options_;
};

}  // namespace

std::unique_ptr<CrackEstimator> MakeEstimator(EstimatorKind kind,
                                              const EstimatorConfig& config) {
  switch (kind) {
    case EstimatorKind::kOe:
      return std::make_unique<OEstimateEstimator>(config.oestimate);
    case EstimatorKind::kSampler:
      return std::make_unique<SamplerEstimator>(config.sampler);
    case EstimatorKind::kAuto:
    case EstimatorKind::kExact:
      break;
  }
  return std::make_unique<PlannerEstimator>(config.planner, kind);
}

Status CheckAdversarySupported(
    EstimatorKind kind, const adversary::AdversaryDescription& adversary) {
  if (!adversary.weighted || kind == EstimatorKind::kOe) return Status::OK();
  return Status::Unimplemented(
      "adversary '" + adversary.name +
      "' produces weighted models, which estimator=" +
      EstimatorKindName(kind) + " does not support");
}

}  // namespace anonsafe
