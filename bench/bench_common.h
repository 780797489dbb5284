#ifndef ANONSAFE_BENCH_BENCH_COMMON_H_
#define ANONSAFE_BENCH_BENCH_COMMON_H_

#include <string>
#include <vector>

#include "belief/belief_function.h"
#include "data/database.h"
#include "data/frequency.h"
#include "datagen/benchmark_profiles.h"
#include "graph/matching_sampler.h"
#include "util/csv_writer.h"
#include "util/result.h"

namespace anonsafe {
namespace bench {

/// \brief Scale factor for the synthetic benchmark stand-ins, from the
/// ANONSAFE_SCALE environment variable (default 1.0 = the paper's full
/// published sizes). Useful for quick smoke runs: ANONSAFE_SCALE=0.1.
double GetScale();

/// \brief Simulation toggle from ANONSAFE_SIM (default on; "0" disables).
/// The simulated-estimate overlays are the slow part of the benches.
bool SimulationEnabled();

/// \brief Worker-thread count for the parallel analysis phases, from the
/// ANONSAFE_THREADS environment variable (default 1; 0 = all hardware
/// cores). Results are bit-identical for any value.
size_t GetThreads();

/// \brief Thread counts for the scaling-curve sections, from the
/// ANONSAFE_THREAD_CURVE environment variable as a comma-separated list
/// (default {1, 2, 4, 8}).
std::vector<size_t> GetThreadCurve();

/// \brief A benchmark stand-in ready for analysis: the frequency table
/// and groups synthesized from the published Figure 9 statistics.
/// The transaction database itself is materialized only on request
/// (`with_database`) since every estimator except the Fig. 12/13 sampling
/// procedures depends on the frequency profile alone.
struct Dataset {
  BenchmarkSpec spec;
  FrequencyTable table{*FrequencyTable::FromSupports({1}, 1)};
  FrequencyGroups groups;
  Database database{0};  // empty unless requested
  bool has_database = false;
};

/// \brief Synthesizes the stand-in for `b` at `scale` with a fixed seed
/// (reproducible across benches).
Result<Dataset> MakeDataset(Benchmark b, double scale, bool with_database,
                            uint64_t seed = 2005);

/// \brief The paper's Section 7.1 simulated estimate of the expected
/// cracks: the mean and sample standard deviation, across `runs`
/// independent MCMC runs, of each run's mean crack count. Run r samples
/// with `sampler` seeded SplitSeed(seed, r). With `interest`, only
/// cracks of the items marked true count (Fig. 11).
struct SimulatedCracks {
  double mean = 0.0;
  double stddev = 0.0;
};
Result<SimulatedCracks> SimulateCracks(
    const FrequencyGroups& observed, const BeliefFunction& belief,
    SamplerOptions sampler, size_t runs, uint64_t seed,
    const std::vector<bool>* interest = nullptr);

/// \brief If ANONSAFE_CSV_DIR is set, writes `csv` to `<dir>/<name>.csv`
/// and reports the path on stdout; otherwise does nothing.
void MaybeWriteCsv(const CsvWriter& csv, const std::string& name);

/// \brief Prints the standard bench banner (experiment id + provenance).
void PrintBanner(const std::string& experiment, const std::string& title);

}  // namespace bench
}  // namespace anonsafe

#endif  // ANONSAFE_BENCH_BENCH_COMMON_H_
