#include "core/similarity.h"

#include <algorithm>
#include <memory>

#include "belief/builders.h"
#include "data/frequency.h"
#include "data/sampling.h"
#include "obs/scoped_timer.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table_printer.h"

namespace anonsafe {
namespace {

// Counting fans out over transaction chunks with one support array per
// chunk. The chunking is a function of (m, n) only, never of the thread
// count or of ExecOptions::grain, and the integer partials are exact, so
// the supports are the same at any thread count. The partial arrays are
// capped at kPartialBudgetBytes in total: very wide domains count in
// fewer chunks.
constexpr size_t kMaxCountChunks = 16;
constexpr size_t kMinCountGrain = 4096;
constexpr size_t kPartialBudgetBytes = size_t{64} << 20;

size_t CountChunks(size_t m, size_t n) {
  const size_t row_bytes = std::max<size_t>(n, 1) * sizeof(SupportCount);
  const size_t by_budget = std::max<size_t>(kPartialBudgetBytes / row_bytes, 1);
  const size_t by_size = std::max<size_t>(m / kMinCountGrain, 1);
  return std::min({kMaxCountChunks, by_budget, by_size});
}

/// Supports of the transactions selected by `mask`, counted in
/// transaction order. `partials` holds one reusable array per chunk.
Status CountMaskedSupports(const Database& db,
                           const std::vector<uint8_t>& mask, size_t grain,
                           exec::ExecContext* ctx,
                           std::vector<std::vector<SupportCount>>* partials,
                           std::vector<SupportCount>* supports) {
  ANONSAFE_RETURN_IF_ERROR(exec::ParallelForChunks(
      ctx, db.num_transactions(), grain, [&](size_t begin, size_t end) {
        std::vector<SupportCount>& counts = (*partials)[begin / grain];
        std::fill(counts.begin(), counts.end(), 0);
        for (size_t t = begin; t < end; ++t) {
          if (mask[t] == 0) continue;
          for (ItemId x : db.transaction(t)) counts[x] += 1;
        }
        return Status::OK();
      }));
  if (ctx->cancelled()) {
    return Status::Cancelled("similarity sampling cancelled");
  }
  std::fill(supports->begin(), supports->end(), 0);
  for (const std::vector<SupportCount>& counts : *partials) {
    for (size_t x = 0; x < counts.size(); ++x) (*supports)[x] += counts[x];
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<SimilarityPoint>> SimilarityBySampling(
    const Database& db, const SimilarityOptions& options,
    exec::ExecContext* external_ctx) {
  if (options.samples_per_fraction == 0) {
    return Status::InvalidArgument("samples_per_fraction must be positive");
  }
  if (options.sample_fractions.empty()) {
    return Status::InvalidArgument("need at least one sample fraction");
  }
  obs::ScopedTimer loop_timer("core.similarity_sampling");
  obs::CountIf("anonsafe_similarity_runs_total");
  ANONSAFE_ASSIGN_OR_RETURN(FrequencyTable truth, FrequencyTable::Compute(db));

  std::unique_ptr<exec::ExecContext> owned_ctx;
  exec::ExecContext* ctx = external_ctx;
  if (ctx == nullptr) {
    owned_ctx = std::make_unique<exec::ExecContext>(options.exec);
    ctx = owned_ctx.get();
  }

  const size_t m = db.num_transactions();
  const size_t n = db.num_items();
  const size_t chunks = CountChunks(m, n);
  const size_t grain = (m + chunks - 1) / chunks;
  std::vector<std::vector<SupportCount>> partials(
      exec::NumChunks(m, grain), std::vector<SupportCount>(n));
  std::vector<SupportCount> supports(n);

  // Every sample is drawn from this one generator, fraction by fraction
  // and repetition by repetition: that order, not the thread count, is
  // what fixes the curve for a seed.
  Rng rng(options.exec.seed);
  std::vector<SimilarityPoint> curve;
  curve.reserve(options.sample_fractions.size());
  for (double p : options.sample_fractions) {
    if (!(p > 0.0) || p > 1.0) {
      return Status::InvalidArgument("sample fraction outside (0, 1]");
    }
    if (ctx->cancelled()) {
      return Status::Cancelled("similarity sampling cancelled");
    }
    obs::ScopedTimer fraction_timer("core.similarity_fraction");
    if (fraction_timer.tracing()) {
      fraction_timer.Annotate("fraction", TablePrinter::FmtG(p, 4));
    }
    const size_t k = SampleSize(m, p);
    std::vector<double> alphas, deltas, group_counts;
    for (size_t rep = 0; rep < options.samples_per_fraction; ++rep) {
      const std::vector<uint8_t> mask = rng.SampleMask(m, k);
      ANONSAFE_RETURN_IF_ERROR(
          CountMaskedSupports(db, mask, grain, ctx, &partials, &supports));
      ANONSAFE_ASSIGN_OR_RETURN(FrequencyTable sample_table,
                                FrequencyTable::FromSupports(supports, k));
      const FrequencyGroups groups = FrequencyGroups::Build(sample_table);
      double delta = 0.0;
      ANONSAFE_ASSIGN_OR_RETURN(
          BeliefFunction belief,
          MakeBeliefFromSampleGroups(sample_table, groups,
                                     options.use_average_gap, &delta));
      ANONSAFE_ASSIGN_OR_RETURN(double alpha,
                                belief.ComplianceFraction(truth));
      alphas.push_back(alpha);
      deltas.push_back(delta);
      group_counts.push_back(static_cast<double>(groups.num_groups()));
    }
    SimilarityPoint point;
    point.sample_fraction = p;
    point.mean_alpha = Mean(alphas);
    point.stddev_alpha = SampleStdDev(alphas);
    point.mean_delta = Mean(deltas);
    point.mean_groups = Mean(group_counts);
    if (fraction_timer.tracing()) {
      fraction_timer.Annotate("mean_alpha",
                              TablePrinter::FmtG(point.mean_alpha, 4));
    }
    curve.push_back(point);
  }
  return curve;
}

}  // namespace anonsafe
