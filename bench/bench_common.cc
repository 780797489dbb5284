#include "bench_common.h"

#include <cstdlib>
#include <iostream>

#include "datagen/profile.h"
#include "exec/exec.h"
#include "util/rng.h"
#include "util/stats.h"

namespace anonsafe {
namespace bench {

double GetScale() {
  const char* env = std::getenv("ANONSAFE_SCALE");
  if (env == nullptr) return 1.0;
  double v = std::atof(env);
  return (v > 0.0 && v <= 1.0) ? v : 1.0;
}

bool SimulationEnabled() {
  const char* env = std::getenv("ANONSAFE_SIM");
  return env == nullptr || std::string(env) != "0";
}

size_t GetThreads() {
  const char* env = std::getenv("ANONSAFE_THREADS");
  if (env == nullptr || *env == '\0') return 1;
  long v = std::atol(env);
  return v >= 0 ? static_cast<size_t>(v) : 1;
}

std::vector<size_t> GetThreadCurve() {
  const char* env = std::getenv("ANONSAFE_THREAD_CURVE");
  if (env == nullptr || *env == '\0') return {1, 2, 4, 8};
  std::vector<size_t> curve;
  std::string spec(env);
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    long v = std::atol(spec.substr(pos, comma - pos).c_str());
    if (v > 0) curve.push_back(static_cast<size_t>(v));
    pos = comma + 1;
  }
  return curve.empty() ? std::vector<size_t>{1, 2, 4, 8} : curve;
}

Result<Dataset> MakeDataset(Benchmark b, double scale, bool with_database,
                            uint64_t seed) {
  Rng rng(seed);
  Dataset out;
  out.spec = GetBenchmarkSpec(b);
  ANONSAFE_ASSIGN_OR_RETURN(FrequencyProfile profile,
                            MakeBenchmarkProfile(b, &rng));
  if (scale != 1.0) {
    ANONSAFE_ASSIGN_OR_RETURN(profile, profile.Scaled(scale));
  }
  ANONSAFE_ASSIGN_OR_RETURN(
      out.table, FrequencyTable::FromSupports(profile.ItemSupports(),
                                              profile.num_transactions()));
  out.groups = FrequencyGroups::Build(out.table);
  if (with_database) {
    ANONSAFE_ASSIGN_OR_RETURN(out.database, GenerateDatabase(profile, &rng));
    out.has_database = true;
  }
  return out;
}

Result<SimulatedCracks> SimulateCracks(const FrequencyGroups& observed,
                                       const BeliefFunction& belief,
                                       SamplerOptions sampler, size_t runs,
                                       uint64_t seed,
                                       const std::vector<bool>* interest) {
  std::vector<double> run_means;
  for (size_t r = 0; r < runs; ++r) {
    sampler.exec.seed = exec::SplitSeed(seed, r);
    ANONSAFE_ASSIGN_OR_RETURN(
        MatchingSampler run,
        MatchingSampler::Create(observed, belief, sampler));
    std::vector<size_t> counts;
    if (interest == nullptr) {
      counts = run.SampleCrackCounts();
    } else {
      ANONSAFE_ASSIGN_OR_RETURN(counts, run.SampleCrackCounts(*interest));
    }
    double sum = 0.0;
    for (size_t c : counts) sum += static_cast<double>(c);
    run_means.push_back(
        counts.empty() ? 0.0 : sum / static_cast<double>(counts.size()));
  }
  return SimulatedCracks{Mean(run_means), SampleStdDev(run_means)};
}

void MaybeWriteCsv(const CsvWriter& csv, const std::string& name) {
  const char* dir = std::getenv("ANONSAFE_CSV_DIR");
  if (dir == nullptr || *dir == '\0') return;
  std::string path = std::string(dir) + "/" + name + ".csv";
  Status st = csv.WriteFile(path);
  if (st.ok()) {
    std::cout << "[csv written to " << path << "]\n";
  } else {
    std::cerr << "[csv write failed: " << st << "]\n";
  }
}

void PrintBanner(const std::string& experiment, const std::string& title) {
  std::cout << "==================================================="
               "=============================\n"
            << experiment << ": " << title << "\n"
            << "Reproduction of Lakshmanan, Ng, Ramesh: \"To Do or Not To "
               "Do\" (SIGMOD 2005).\n"
            << "Datasets are synthetic stand-ins calibrated to the paper's "
               "Figure 9 statistics\n"
            << "(see DESIGN.md section 4); compare shapes, not absolute "
               "decimals.\n"
            << "==================================================="
               "=============================\n";
}

}  // namespace bench
}  // namespace anonsafe
