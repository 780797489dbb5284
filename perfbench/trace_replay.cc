// In-process replay of the benchmark's workloads, timing each call into a
// layer's public functions from outside the library. Every replay renders
// the same document the CLI or the server produced for the same inputs and
// reports whether the bytes match, so the per-layer decomposition cannot
// drift away from the program it describes.
//
// Usage (one JSON object on stdout per command, except generate):
//   perfbench_trace generate <BENCHMARK> <out.dat> <scale> <seed>
//   perfbench_trace describe <file.dat>...
//   perfbench_trace report <file.dat> <threads> <cli-output>
//   perfbench_trace defense <file.dat> <threads> <cli-output>
//   perfbench_trace serve-expect <plan.json> <out.jsonl>
//   perfbench_trace serve <plan.json> <expected.jsonl> <sessions>
//
// A serve plan is {"files": [path, ...], "calls": [[params, ...], ...]}:
// `calls[f]` lists the `assess_risk` params one session on file f sends.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "adversary/adversary.h"
#include "belief/builders.h"
#include "core/exact_formulas.h"
#include "core/recipe.h"
#include "core/risk_report.h"
#include "core/similarity.h"
#include "data/fimi_io.h"
#include "data/frequency.h"
#include "datagen/benchmark_profiles.h"
#include "datagen/profile.h"
#include "defense/optimizer.h"
#include "defense/scheme.h"
#include "estimator/estimator.h"
#include "estimator/planner.h"
#include "exec/exec.h"
#include "graph/simd_kernels.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "util/json.h"
#include "util/rng.h"

namespace anonsafe {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Wall time and call count per span name, summed over a replay.
class Spans {
 public:
  template <typename F>
  auto Time(const std::string& name, F&& call) {
    const Clock::time_point start = Clock::now();
    auto result = call();
    Add(name, MsSince(start));
    return result;
  }
  void Add(const std::string& name, double ms) {
    ms_[name] += ms;
    calls_[name] += 1;
  }
  json::Value ToJson() const {
    json::Value out = json::Value::Object();
    for (const auto& [name, ms] : ms_) {
      json::Value span = json::Value::Object();
      span.Set("ms", json::Value(ms));
      span.Set("calls", json::Value(uint64_t{calls_.at(name)}));
      out.Set(name, std::move(span));
    }
    return out;
  }

 private:
  std::map<std::string, double> ms_;
  std::map<std::string, uint64_t> calls_;
};

/// Planner block counts by method, plus how many were exact.
struct BlockTally {
  std::map<std::string, uint64_t> by_method;
  uint64_t exact = 0;
  void Add(const std::vector<BlockProvenance>& blocks) {
    for (const BlockProvenance& b : blocks) {
      by_method[BlockMethodName(b.method)] += 1;
      exact += b.exact ? 1 : 0;
    }
  }
  json::Value ToJson() const {
    json::Value methods = json::Value::Object();
    for (const auto& [name, n] : by_method) {
      methods.Set(name, json::Value(n));
    }
    json::Value out = json::Value::Object();
    out.Set("methods", std::move(methods));
    out.Set("exact", json::Value(exact));
    return out;
  }
};

[[noreturn]] void Die(const std::string& message) {
  std::cerr << "perfbench_trace: " << message << "\n";
  std::exit(2);
}

template <typename T>
T Check(Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what + ": " + result.status().ToString());
  return std::move(*result);
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) Die("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Exec counters from the obs registry (enabled by the caller).
json::Value ExecCounters() {
  const json::Value doc = Check(
      json::Value::Parse(obs::ExportJson(obs::MetricsRegistry::Global())),
      "metrics export");
  uint64_t tasks = 0;
  uint64_t steals = 0;
  if (const json::Value* counters = doc.Find("counters")) {
    for (const json::Value& c : counters->items()) {
      const std::string name = Check(c.GetString("name"), "counter name");
      const double value = Check(c.GetNumber("value"), "counter value");
      if (name == "anonsafe_exec_tasks_total") tasks = uint64_t(value);
      if (name == "anonsafe_exec_steals_total") steals = uint64_t(value);
    }
  }
  json::Value out = json::Value::Object();
  out.Set("tasks", json::Value(tasks));
  out.Set("steals", json::Value(steals));
  return out;
}

void EnableCounters() {
  obs::SetMetricsEnabled(true);
  obs::MetricsRegistry::Global().Reset();
}

/// A stand-in database whose frequency profile is drawn at the CLI's
/// default seed and whose transactions are drawn at `seed`. `anonsafe
/// generate` draws both from one seed, and the profile's random gaps move
/// the database's size by up to 2x between seeds (ACCIDENTS: 5.4M to
/// 10.2M occurrences); pinning the profile keeps each workload's size
/// fixed while the seed still decides every transaction.
int Generate(const std::string& name, const std::string& out_path,
             double scale, uint64_t seed) {
  constexpr uint64_t kProfileSeed = 2005;
  const Benchmark benchmark = Check(BenchmarkByName(name), "benchmark");
  Rng profile_rng(kProfileSeed);
  FrequencyProfile profile =
      Check(MakeBenchmarkProfile(benchmark, &profile_rng), "profile");
  if (scale != 1.0) profile = Check(profile.Scaled(scale), "scale");
  Rng rng(seed);
  const Database db = Check(GenerateDatabase(profile, &rng), "generate");
  const Status written = WriteFimiFile(db, out_path);
  if (!written.ok()) Die(written.ToString());
  return 0;
}

int Describe(const std::vector<std::string>& paths) {
  json::Value files = json::Value::Array();
  for (const std::string& path : paths) {
    const std::string content = Slurp(path);
    std::istringstream in(content);
    LabeledDatabase data = Check(ReadFimi(in), path);
    json::Value f = json::Value::Object();
    f.Set("path", json::Value(path));
    f.Set("items", json::Value(uint64_t{data.database.num_items()}));
    f.Set("transactions",
          json::Value(uint64_t{data.database.num_transactions()}));
    f.Set("occurrences", json::Value(uint64_t{data.database.TotalSize()}));
    f.Set("bytes", json::Value(uint64_t{content.size()}));
    files.Append(std::move(f));
  }
  json::Value out = json::Value::Object();
  out.Set("files", std::move(files));
  out.Set("simd_isa", json::Value(internal::Kernels().name));
  std::cout << out.Dump() << "\n";
  return 0;
}

/// BuildRiskReport, one layer call at a time. Must stay in step with
/// src/core/risk_report.cc; the byte comparison of the rendered document
/// against the program's own output is what catches a divergence.
std::string ReplayRiskReport(const Database& db,
                             const RiskReportOptions& options,
                             exec::ExecContext* ctx,
                             RecipeArtifacts* artifacts, Spans* spans,
                             BlockTally* blocks) {
  FrequencyTable table = spans->Time("data.frequency_compute", [&] {
    return Check(FrequencyTable::Compute(db), "FrequencyTable::Compute");
  });
  FrequencyGroups groups = spans->Time("data.groups_build", [&] {
    return FrequencyGroups::Build(table);
  });
  RiskReport report;
  report.num_items = db.num_items();
  report.num_transactions = db.num_transactions();
  report.num_groups = groups.num_groups();
  report.num_singleton_groups = groups.num_singleton_groups();
  report.median_gap = groups.MedianGap();
  report.mean_gap = groups.GapSummary().mean;
  report.ignorant_expected_cracks = IgnorantExpectedCracks(db.num_items());
  report.point_valued_expected_cracks = PointValuedExpectedCracks(groups);
  report.recipe = spans->Time("core.assess_risk", [&] {
    return Check(AssessRisk(table, options.recipe, ctx, artifacts),
                 "AssessRisk");
  });
  blocks->Add(report.recipe.interval_blocks);
  if (options.include_similarity_curve) {
    report.similarity_curve = spans->Time("core.similarity", [&] {
      return Check(SimilarityBySampling(db, options.similarity, ctx),
                   "SimilarityBySampling");
    });
    if (report.recipe.decision == RecipeDecision::kAlphaBound) {
      for (const SimilarityPoint& p : report.similarity_curve) {
        if (p.mean_alpha >= report.recipe.alpha_max) {
          report.breaching_sample_fraction = p.sample_fraction;
          break;
        }
      }
    }
  }
  return spans->Time("core.render",
                     [&] { return report.ToJson().Dump(); });
}

/// `anonsafe report <file> --json --threads=N`, replayed.
int Report(const std::string& path, size_t threads,
           const std::string& cli_output) {
  EnableCounters();
  const Clock::time_point start = Clock::now();
  Spans spans;
  BlockTally blocks;
  LabeledDatabase data = spans.Time("data.read_fimi", [&] {
    return Check(ReadFimiFile(path), path);
  });
  RiskReportOptions options;
  options.recipe.exec.threads = threads;
  const std::string dump = ReplayRiskReport(data.database, options, nullptr,
                                            nullptr, &spans, &blocks);
  const double wall_ms = MsSince(start);

  json::Value out = json::Value::Object();
  out.Set("wall_ms", json::Value(wall_ms));
  out.Set("spans", spans.ToJson());
  out.Set("blocks", blocks.ToJson());
  out.Set("exec", ExecCounters());
  out.Set("similarity_samples",
          json::Value(uint64_t{options.similarity.sample_fractions.size() *
                               options.similarity.samples_per_fraction}));
  out.Set("identical", json::Value(dump + "\n" == Slurp(cli_output)));
  std::cout << out.Dump() << "\n";
  return 0;
}

/// `anonsafe recommend-defense <file> --json --threads=N`, replayed: the
/// sweep itself, then each candidate's Apply and estimator call again
/// one at a time (nested inside defense.recommend, so they are not part
/// of its coverage sum). Each re-scored candidate must reproduce the
/// sweep's expected cracks bit for bit.
int Defense(const std::string& path, size_t threads,
            const std::string& cli_output) {
  EnableCounters();
  const Clock::time_point start = Clock::now();
  Spans spans;
  LabeledDatabase data = spans.Time("data.read_fimi", [&] {
    return Check(ReadFimiFile(path), path);
  });
  const defense::OptimizerOptions options;
  exec::ExecOptions exec_options;
  exec_options.seed = options.seed;
  exec_options.threads = threads;
  exec::ExecContext ctx(exec_options);
  defense::DefenseFrontier frontier = spans.Time("defense.recommend", [&] {
    return Check(defense::RecommendDefense(data.database, options, &ctx),
                 "RecommendDefense");
  });
  const std::string dump =
      spans.Time("core.render", [&] { return frontier.ToJson().Dump(); });
  const double wall_ms = MsSince(start);
  json::Value exec_counters = ExecCounters();

  const uint64_t seed = frontier.seed;
  const FrequencyTable before =
      Check(FrequencyTable::Compute(data.database), "FrequencyTable");
  // The optimizer scores the release view: published items only.
  auto score = [&](const FrequencyTable& table, uint64_t stream,
                   BlockTally* blocks) {
    std::vector<SupportCount> alive;
    for (ItemId x = 0; x < table.num_items(); ++x) {
      if (table.support(x) > 0) alive.push_back(table.support(x));
    }
    const FrequencyTable release = Check(
        FrequencyTable::FromSupports(std::move(alive),
                                     table.num_transactions()),
        "release view");
    const FrequencyGroups groups = FrequencyGroups::Build(release);
    const BeliefFunction belief = Check(
        MakeCompliantIntervalBelief(release, groups.MedianGap()), "belief");
    PlannerOptions planner = options.planner;
    planner.block_sampler.exec.seed = exec::SplitSeed(seed, stream);
    const CrackEstimate estimate = spans.Time("estimator.plan_estimate", [&] {
      return Check(PlanAndEstimate(groups, belief, planner, &ctx),
                   "PlanAndEstimate");
    });
    blocks->Add(estimate.blocks);
    return estimate.expected_cracks;
  };
  BlockTally blocks;
  uint64_t rescored = 1;
  uint64_t mismatches =
      score(before, 1, &blocks) == frontier.baseline_cracks ? 0 : 1;
  for (const defense::CandidateScore& c : frontier.candidates) {
    const defense::DefenseScheme* scheme =
        defense::DefenseScheme::Find(c.scheme);
    if (scheme == nullptr) Die("unknown scheme " + c.scheme);
    Result<defense::DefensePlan> plan = scheme->Plan(before, c.params);
    if (!plan.ok()) continue;  // unreachable setting, as in the sweep
    Rng rng(exec::SplitSeed(seed, 2 * c.index + 2));
    Result<Database> defended = spans.Time("defense.apply", [&] {
      return scheme->Apply(data.database, *plan, &rng);
    });
    if (!defended.ok()) continue;
    Result<FrequencyTable> after = FrequencyTable::Compute(*defended);
    if (!after.ok() || !c.feasible) continue;
    ++rescored;
    if (score(*after, 2 * c.index + 3, &blocks) != c.expected_cracks) {
      ++mismatches;
    }
  }

  json::Value out = json::Value::Object();
  out.Set("wall_ms", json::Value(wall_ms));
  out.Set("spans", spans.ToJson());
  out.Set("blocks", blocks.ToJson());
  out.Set("exec", std::move(exec_counters));
  out.Set("candidates", json::Value(uint64_t{frontier.candidates.size()}));
  out.Set("identical", json::Value(dump + "\n" == Slurp(cli_output)));
  out.Set("rescored", json::Value(rescored));
  out.Set("rescore_mismatches", json::Value(mismatches));
  std::cout << out.Dump() << "\n";
  return 0;
}

struct ServePlan {
  std::vector<std::string> files;
  std::vector<std::vector<json::Value>> calls;
};

ServePlan ReadPlan(const std::string& path) {
  const json::Value doc = Check(json::Value::Parse(Slurp(path)), path);
  ServePlan plan;
  const json::Value* files = doc.Find("files");
  const json::Value* calls = doc.Find("calls");
  if (files == nullptr || calls == nullptr ||
      files->items().size() != calls->items().size()) {
    Die("malformed plan " + path);
  }
  for (const json::Value& f : files->items()) {
    plan.files.push_back(f.AsString());
  }
  for (const json::Value& c : calls->items()) plan.calls.push_back(c.items());
  return plan;
}

/// The serve `assess_risk` params the benchmark sends, read with the
/// server's defaults (seed 7, runs 5, threads 1).
RiskReportOptions OptionsFromParams(const json::Value& params) {
  RiskReportOptions options;
  options.recipe.tolerance =
      Check(params.GetNumberOr("tolerance", options.recipe.tolerance),
            "tolerance");
  options.include_similarity_curve =
      Check(params.GetBoolOr("include_similarity_curve", true),
            "include_similarity_curve");
  options.recipe.estimator = Check(
      ParseEstimatorKind(Check(params.GetStringOr("estimator", "oe"),
                               "estimator")),
      "estimator");
  const std::string spec = Check(params.GetStringOr("adversary", ""),
                                 "adversary");
  if (!spec.empty()) {
    adversary::AdversarySpec parsed =
        Check(adversary::ParseAdversarySpec(spec), "adversary");
    options.recipe.adversary = std::move(parsed.name);
    options.recipe.adversary_params = std::move(parsed.params);
  }
  exec::ExecOptions exec_options;
  exec_options.seed = static_cast<uint64_t>(
      Check(params.GetNumberOr("seed", double(exec_options.seed)), "seed"));
  exec_options.runs = static_cast<size_t>(
      Check(params.GetNumberOr("runs", double(exec_options.runs)), "runs"));
  exec_options.threads = static_cast<size_t>(Check(
      params.GetNumberOr("threads", double(exec_options.threads)),
      "threads"));
  options.recipe.exec = exec_options;
  return options;
}

/// Reference reports for every (file, call) of a plan, straight from
/// BuildRiskReport; files are spread over up to four threads.
int ServeExpect(const std::string& plan_path, const std::string& out_path) {
  const ServePlan plan = ReadPlan(plan_path);
  std::vector<std::vector<std::string>> dumps(plan.files.size());
  auto work = [&](size_t first) {
    for (size_t f = first; f < plan.files.size(); f += 4) {
      const LabeledDatabase data = Check(ReadFimiFile(plan.files[f]),
                                         plan.files[f]);
      for (const json::Value& params : plan.calls[f]) {
        const RiskReportOptions options = OptionsFromParams(params);
        exec::ExecContext ctx(options.recipe.exec);
        const RiskReport report =
            Check(BuildRiskReport(data.database, options, &ctx),
                  "BuildRiskReport");
        dumps[f].push_back(report.ToJson().Dump());
      }
    }
  };
  std::vector<std::thread> workers;
  for (size_t w = 0; w < 4; ++w) workers.emplace_back(work, w);
  for (std::thread& t : workers) t.join();

  std::ofstream out(out_path);
  for (size_t f = 0; f < dumps.size(); ++f) {
    for (size_t c = 0; c < dumps[f].size(); ++c) {
      json::Value line = json::Value::Object();
      line.Set("file", json::Value(uint64_t{f}));
      line.Set("call", json::Value(uint64_t{c}));
      line.Set("report", json::Value(dumps[f][c]));
      out << line.Dump() << "\n";
    }
  }
  if (!out) Die("cannot write '" + out_path + "'");
  return 0;
}

/// One serve session per file for the first `sessions` files of the
/// plan, as the server runs it: a cold load (parse, count, group) and
/// then each assess_risk against the dataset's shared recipe artifacts.
int Serve(const std::string& plan_path, const std::string& expected_path,
          size_t sessions) {
  const ServePlan plan = ReadPlan(plan_path);
  std::map<std::pair<uint64_t, uint64_t>, std::string> expected;
  {
    std::ifstream in(expected_path);
    std::string line;
    while (std::getline(in, line)) {
      const json::Value v = Check(json::Value::Parse(line), expected_path);
      expected[{uint64_t(Check(v.GetNumber("file"), "file")),
                uint64_t(Check(v.GetNumber("call"), "call"))}] =
          Check(v.GetString("report"), "report");
    }
  }
  json::Value per_session = json::Value::Array();
  BlockTally blocks;
  uint64_t checked = 0;
  uint64_t mismatches = 0;
  for (size_t f = 0; f < std::min(sessions, plan.files.size()); ++f) {
    const Clock::time_point start = Clock::now();
    Spans spans;
    LabeledDatabase data = spans.Time("data.read_fimi", [&] {
      std::istringstream in(Slurp(plan.files[f]));
      return Check(ReadFimi(in), plan.files[f]);
    });
    const FrequencyTable table = spans.Time("data.frequency_compute", [&] {
      return Check(FrequencyTable::Compute(data.database), "Compute");
    });
    spans.Time("data.groups_build",
               [&] { return FrequencyGroups::Build(table); });
    std::shared_ptr<RecipeArtifacts> artifacts = MakeRecipeArtifacts();
    for (size_t c = 0; c < plan.calls[f].size(); ++c) {
      const RiskReportOptions options = OptionsFromParams(plan.calls[f][c]);
      exec::ExecContext ctx(options.recipe.exec);
      const std::string dump =
          ReplayRiskReport(data.database, options, &ctx, artifacts.get(),
                           &spans, &blocks);
      ++checked;
      auto it = expected.find({f, c});
      if (it == expected.end() || it->second != dump) ++mismatches;
    }
    json::Value session = json::Value::Object();
    session.Set("wall_ms", json::Value(MsSince(start)));
    session.Set("spans", spans.ToJson());
    per_session.Append(std::move(session));
  }
  json::Value out = json::Value::Object();
  out.Set("sessions", std::move(per_session));
  out.Set("blocks", blocks.ToJson());
  out.Set("checked", json::Value(checked));
  out.Set("mismatches", json::Value(mismatches));
  std::cout << out.Dump() << "\n";
  return 0;
}

size_t ParseCount(const std::string& text) {
  try {
    return static_cast<size_t>(std::stoul(text));
  } catch (const std::exception&) {
    Die("expected a count, got '" + text + "'");
  }
}

}  // namespace
}  // namespace perfbench
}  // namespace anonsafe

int main(int argc, char** argv) {
  using namespace anonsafe::perfbench;
  const std::vector<std::string> args(argv + 1, argv + argc);
  const std::string command = args.empty() ? "" : args[0];
  if (command == "generate" && args.size() == 5) {
    return Generate(args[1], args[2], std::stod(args[3]),
                    ParseCount(args[4]));
  }
  if (command == "describe") {
    return Describe({args.begin() + 1, args.end()});
  }
  if (command == "report" && args.size() == 4) {
    return Report(args[1], ParseCount(args[2]), args[3]);
  }
  if (command == "defense" && args.size() == 4) {
    return Defense(args[1], ParseCount(args[2]), args[3]);
  }
  if (command == "serve-expect" && args.size() == 3) {
    return ServeExpect(args[1], args[2]);
  }
  if (command == "serve" && args.size() == 4) {
    return Serve(args[1], args[2], ParseCount(args[3]));
  }
  std::cerr << "usage: perfbench_trace generate|describe|report|defense|"
               "serve-expect|serve ... (see the header of trace_replay.cc)\n";
  return 2;
}
