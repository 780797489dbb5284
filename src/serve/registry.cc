#include "serve/registry.h"

#include <cassert>
#include <cmath>

namespace anonsafe {
namespace serve {

using Type = json::Value::Type;

const char* JsonTypeName(json::Value::Type type) {
  switch (type) {
    case json::Value::Type::kNull:
      return "null";
    case json::Value::Type::kBool:
      return "bool";
    case json::Value::Type::kNumber:
      return "number";
    case json::Value::Type::kString:
      return "string";
    case json::Value::Type::kArray:
      return "array";
    case json::Value::Type::kObject:
      return "object";
  }
  return "?";
}

void HandlerRegistry::Register(VerbSpec spec) {
  assert(Find(spec.name) == nullptr && "duplicate verb registration");
  verbs_.push_back(std::move(spec));
}

const VerbSpec* HandlerRegistry::Find(const std::string& verb) const {
  for (const VerbSpec& spec : verbs_) {
    if (spec.name == verb) return &spec;
  }
  return nullptr;
}

const std::vector<ParamSpec>& HandlerRegistry::GenericParams() {
  static const auto* kGeneric = new std::vector<ParamSpec>(
      JoinParams(ExecParams(), {{"deadline_ms", Type::kNumber},
                                {"trace", Type::kBool}}));
  return *kGeneric;
}

Status CheckParams(const std::vector<ParamSpec>& specs,
                   const json::Value& params) {
  for (const ParamSpec& spec : specs) {
    const json::Value* value = params.Find(spec.name);
    if (value == nullptr) {
      if (spec.required) {
        return Status::InvalidArgument(std::string("missing required param '") +
                                       spec.name + "'");
      }
      continue;
    }
    if (value->type() != spec.type) {
      return Status::InvalidArgument(std::string("param '") + spec.name +
                                     "' must be a " + JsonTypeName(spec.type) +
                                     ", got " + JsonTypeName(value->type()));
    }
  }
  return Status::OK();
}

Status HandlerRegistry::ValidateParams(const VerbSpec& spec,
                                       const json::Value& params) const {
  ANONSAFE_RETURN_IF_ERROR(CheckParams(spec.params, params));
  if (!spec.is_control()) {
    ANONSAFE_RETURN_IF_ERROR(CheckParams(GenericParams(), params));
  }
  return Status::OK();
}

Result<uint64_t> IntegerParam(const json::Value& params, const char* name,
                              uint64_t fallback, uint64_t max) {
  if (params.Find(name) == nullptr) return fallback;
  ANONSAFE_ASSIGN_OR_RETURN(double value, params.GetNumber(name));
  if (!(value >= 0.0) || value != std::floor(value) ||
      value > static_cast<double>(max)) {
    return Status::InvalidArgument(std::string(name) +
                                   " must be an integer in [0, " +
                                   std::to_string(max) + "]");
  }
  return static_cast<uint64_t>(value);
}

std::vector<ParamSpec> JoinParams(std::vector<ParamSpec> a,
                                  const std::vector<ParamSpec>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

const std::vector<ParamSpec>& ExecParams() {
  static const auto* kParams = new std::vector<ParamSpec>{
      {"seed", Type::kNumber}, {"runs", Type::kNumber},
      {"threads", Type::kNumber}};
  return *kParams;
}

const std::vector<ParamSpec>& AssessRiskParams() {
  static const auto* kParams = new std::vector<ParamSpec>{
      {"tolerance", Type::kNumber}, {"include_similarity_curve", Type::kBool},
      {"estimator", Type::kString}, {"adversary", Type::kString}};
  return *kParams;
}

const std::vector<ParamSpec>& PlannerParams() {
  static const auto* kParams = new std::vector<ParamSpec>{
      {"ryser_cutoff", Type::kNumber}, {"prefer_sampler", Type::kBool}};
  return *kParams;
}

const std::vector<ParamSpec>& SimilarityParams() {
  static const auto* kParams =
      new std::vector<ParamSpec>{{"samples_per_fraction", Type::kNumber}};
  return *kParams;
}

Result<exec::ExecOptions> ExecOptionsFromParams(
    const json::Value& params, const exec::ExecOptions& defaults) {
  exec::ExecOptions eo = defaults;
  ANONSAFE_ASSIGN_OR_RETURN(
      eo.seed, IntegerParam(params, "seed", eo.seed, kMaxExactInteger));
  ANONSAFE_ASSIGN_OR_RETURN(
      eo.runs, IntegerParam(params, "runs", eo.runs, kMaxRequestRuns));
  ANONSAFE_ASSIGN_OR_RETURN(
      eo.threads,
      IntegerParam(params, "threads", eo.threads, kMaxRequestThreads));
  return eo;
}

Result<adversary::AdversarySpec> AdversaryFromParams(
    const json::Value& params) {
  ANONSAFE_ASSIGN_OR_RETURN(std::string spec,
                            params.GetStringOr("adversary", ""));
  if (spec.empty()) return adversary::AdversarySpec{};
  return adversary::ParseAdversarySpec(spec);
}

Result<RecipeOptions> RecipeOptionsFromParams(const json::Value& params) {
  RecipeOptions options;
  ANONSAFE_ASSIGN_OR_RETURN(options.tolerance,
                            params.GetNumberOr("tolerance", options.tolerance));
  ANONSAFE_ASSIGN_OR_RETURN(
      std::string estimator,
      params.GetStringOr("estimator", EstimatorKindName(options.estimator)));
  ANONSAFE_ASSIGN_OR_RETURN(options.estimator, ParseEstimatorKind(estimator));
  ANONSAFE_ASSIGN_OR_RETURN(adversary::AdversarySpec adversary,
                            AdversaryFromParams(params));
  options.adversary = std::move(adversary.name);
  options.adversary_params = std::move(adversary.params);
  ANONSAFE_ASSIGN_OR_RETURN(options.exec,
                            ExecOptionsFromParams(params, options.exec));
  return options;
}

Result<RiskReportOptions> ReportOptionsFromParams(const json::Value& params) {
  RiskReportOptions options;
  ANONSAFE_ASSIGN_OR_RETURN(options.recipe, RecipeOptionsFromParams(params));
  ANONSAFE_ASSIGN_OR_RETURN(
      options.include_similarity_curve,
      params.GetBoolOr("include_similarity_curve",
                       options.include_similarity_curve));
  return options;
}

Result<PlannerOptions> PlannerOptionsFromParams(const json::Value& params) {
  PlannerOptions options;
  ANONSAFE_ASSIGN_OR_RETURN(
      options.ryser_cutoff,
      IntegerParam(params, "ryser_cutoff", options.ryser_cutoff,
                   kMaxExactInteger));
  ANONSAFE_ASSIGN_OR_RETURN(
      options.prefer_sampler,
      params.GetBoolOr("prefer_sampler", options.prefer_sampler));
  return options;
}

Result<SimilarityOptions> SimilarityOptionsFromParams(
    const json::Value& params) {
  SimilarityOptions options;
  ANONSAFE_ASSIGN_OR_RETURN(options.exec,
                            ExecOptionsFromParams(params, options.exec));
  ANONSAFE_ASSIGN_OR_RETURN(
      options.samples_per_fraction,
      IntegerParam(params, "samples_per_fraction",
                   options.samples_per_fraction, kMaxRequestRuns));
  return options;
}

}  // namespace serve
}  // namespace anonsafe
