#ifndef ANONSAFE_SERVE_REGISTRY_H_
#define ANONSAFE_SERVE_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/risk_report.h"
#include "serve/protocol.h"
#include "util/json.h"
#include "util/result.h"

namespace anonsafe {
namespace exec {
class ExecContext;
}  // namespace exec
namespace serve {

/// \brief One declared parameter of a verb: its name, the JSON type it
/// must have when present, and whether the request must carry it.
/// Undeclared params are ignored (the additive-change policy: clients
/// may send fields this server predates), but a declared param with the
/// wrong type is an `invalid_params` error generated uniformly by the
/// registry — handlers never see ill-typed declared input.
struct ParamSpec {
  const char* name;
  json::Value::Type type;
  bool required = false;
};

/// \name Verb behaviour flags.
/// @{
/// Answers without passing admission control: works on a saturated or
/// draining server (metrics, debug, server_info, shutdown).
inline constexpr uint32_t kVerbControl = 1u << 0;
/// Excluded from the flight recorder and exempt from tenant quotas — an
/// observer of the server, not a request worth debugging (metrics,
/// debug, server_info).
inline constexpr uint32_t kVerbObserver = 1u << 1;
/// Registered only when `ServerOptions::enable_test_verbs` is set;
/// otherwise resolves to `unknown_verb` exactly like an absent entry.
inline constexpr uint32_t kVerbTestOnly = 1u << 2;
/// Requires a v2 envelope: a v1 request naming the verb gets
/// `unknown_verb` (the verb does not exist in its protocol).
inline constexpr uint32_t kVerbV2Only = 1u << 3;
/// @}

struct Request;

/// \brief One verb: name, param schema, flags, handler. The handler runs
/// on a request-runner thread for compute verbs and inline on the
/// calling (transport) thread for control verbs; `ctx` is null for
/// control verbs, which never execute work worth cancelling.
struct VerbSpec {
  std::string name;
  std::vector<ParamSpec> params;
  uint32_t flags = 0;
  std::function<Result<json::Value>(const Request&, exec::ExecContext*)>
      handler;

  bool is_control() const { return (flags & kVerbControl) != 0; }
  bool is_observer() const { return (flags & kVerbObserver) != 0; }
  bool is_test_only() const { return (flags & kVerbTestOnly) != 0; }
  bool is_v2_only() const { return (flags & kVerbV2Only) != 0; }
};

/// \brief The verb table: declarative registration, uniform
/// `unknown_verb` / `invalid_params` generation, and the machine-readable
/// listing `server_info` advertises. Built once at server construction
/// and immutable afterwards, so lookups are lock-free.
class HandlerRegistry {
 public:
  /// \brief Registers a verb; names must be unique.
  void Register(VerbSpec spec);

  /// \brief Lookup by name; null when the verb does not exist.
  const VerbSpec* Find(const std::string& verb) const;

  /// \brief Validates `params` against the verb's schema plus the
  /// generic params every compute verb understands (`seed`, `runs`,
  /// `threads`, `deadline_ms`, `trace`): required params must be
  /// present, declared params must have the declared type.
  /// InvalidArgument (→ `invalid_params`) otherwise.
  Status ValidateParams(const VerbSpec& spec,
                        const json::Value& params) const;

  /// \brief Registration order listing, for `server_info`.
  const std::vector<VerbSpec>& verbs() const { return verbs_; }

  /// \brief The generic params accepted by every non-control verb.
  static const std::vector<ParamSpec>& GenericParams();

 private:
  std::vector<VerbSpec> verbs_;
};

/// \brief Human name of a JSON type for error messages ("string",
/// "number", "bool", "array", "object", "null").
const char* JsonTypeName(json::Value::Type type);

/// \brief Validates `params` against one spec list (required presence,
/// declared types). The building block `ValidateParams` composes; also
/// used standalone for `assess_risk_batch` item objects, which have
/// their own schema.
Status CheckParams(const std::vector<ParamSpec>& specs,
                   const json::Value& params);

/// The request spec shared by `anonsafe serve` and the one-shot CLI
/// (which first turns `--name=value` flags into the same params object):
/// each compute verb's param list, declared once, and one decoder per
/// options struct. Decoders range-check what they read and leave absent
/// params at the struct's default (docs/SERVER.md).

/// Per-request ceilings: each request builds its own thread pool and each
/// α probe evaluates `runs` O-estimates; integers above 2^53 are not
/// exact as JSON numbers.
inline constexpr uint64_t kMaxRequestThreads = 256;
inline constexpr uint64_t kMaxRequestRuns = 1000;
inline constexpr uint64_t kMaxExactInteger = uint64_t{1} << 53;

/// \brief An integer param in [0, max], `fallback` when absent;
/// InvalidArgument when fractional, negative or out of range.
Result<uint64_t> IntegerParam(const json::Value& params, const char* name,
                              uint64_t fallback, uint64_t max);

/// \brief `a` then `b`: composes a schema from the shared lists.
std::vector<ParamSpec> JoinParams(std::vector<ParamSpec> a,
                                  const std::vector<ParamSpec>& b);

/// `seed`, `runs`, `threads`: accepted by every compute verb.
const std::vector<ParamSpec>& ExecParams();
/// `assess_risk`, and each batch item together with the exec params.
const std::vector<ParamSpec>& AssessRiskParams();
/// `recommend_defense`: the estimator planner's knobs.
const std::vector<ParamSpec>& PlannerParams();
const std::vector<ParamSpec>& SimilarityParams();

/// `seed` (≤ 2^53), `runs` (≤ 1000), `threads` (≤ 256) over `defaults`.
Result<exec::ExecOptions> ExecOptionsFromParams(
    const json::Value& params, const exec::ExecOptions& defaults = {});
/// `adversary` ("name[:k=v,...]"); absent or empty is the interval model.
Result<adversary::AdversarySpec> AdversaryFromParams(
    const json::Value& params);
/// `tolerance`, `estimator`, `adversary` plus the exec params.
Result<RecipeOptions> RecipeOptionsFromParams(const json::Value& params);
/// The recipe params plus `include_similarity_curve`.
Result<RiskReportOptions> ReportOptionsFromParams(const json::Value& params);
/// `ryser_cutoff` and `prefer_sampler`.
Result<PlannerOptions> PlannerOptionsFromParams(const json::Value& params);
/// `samples_per_fraction` (≤ 1000) plus the exec params (`seed` 11).
Result<SimilarityOptions> SimilarityOptionsFromParams(
    const json::Value& params);

}  // namespace serve
}  // namespace anonsafe

#endif  // ANONSAFE_SERVE_REGISTRY_H_
