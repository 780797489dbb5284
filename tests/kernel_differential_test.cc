#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "belief/belief_function.h"
#include "belief/builders.h"
#include "core/alpha_sweep.h"
#include "core/oestimate.h"
#include "data/frequency.h"
#include "exec/exec.h"
#include "exec/scratch.h"
#include "graph/bipartite_graph.h"
#include "graph/consistency.h"
#include "graph/matching_sampler.h"
#include "graph/permanent.h"
#include "graph/simd_kernels.h"
#include "util/cpu.h"
#include "util/rng.h"

// Differential tests pinning the reworked hot kernels (SIMD lane Ryser,
// dispatched sampler probes, CSR adjacency, cached α probes) against
// slow, obviously-correct reference implementations. The lane kernels
// promise a *bit-identical* double for every ISA tier and thread count;
// the textbook long-double reference is bitwise only while products stay
// exactly representable (n <= 12 conservatively), and within rounding
// slack beyond that.

namespace anonsafe {
namespace {

/// ISA tiers that are both supported by this CPU and compiled in; every
/// cross-ISA differential iterates these.
std::vector<cpu::Isa> AvailableIsas() {
  std::vector<cpu::Isa> isas;
  for (cpu::Isa isa :
       {cpu::Isa::kScalar, cpu::Isa::kAvx2, cpu::Isa::kAvx512}) {
    if (internal::KernelsFor(isa) != nullptr) isas.push_back(isa);
  }
  return isas;
}

// ------------------------------------------------------- reference Ryser

/// Textbook Ryser with Gray-code column updates and a long-double
/// accumulator: no lanes, no zero-row skipping. Its rounding differs from
/// the lane kernel once term products exceed 2^53, so bitwise comparisons
/// against it are restricted to small n.
double ReferenceRyser(const std::vector<uint64_t>& rows) {
  const size_t n = rows.size();
  if (n == 0) return 1.0;
  const uint64_t limit = 1ULL << n;
  std::vector<double> row_sums(n, 0.0);
  uint64_t gray = 0;
  long double total = 0.0L;
  for (uint64_t iter = 1; iter < limit; ++iter) {
    const uint64_t new_gray = iter ^ (iter >> 1);
    const uint64_t diff = gray ^ new_gray;
    const int col = std::countr_zero(diff);
    const double sign_col = (new_gray & diff) ? 1.0 : -1.0;
    for (size_t i = 0; i < n; ++i) {
      if ((rows[i] >> col) & 1) row_sums[i] += sign_col;
    }
    gray = new_gray;
    long double prod = 1.0L;
    for (size_t i = 0; i < n; ++i) prod *= row_sums[i];
    if ((n - static_cast<size_t>(std::popcount(new_gray))) & 1) {
      total -= prod;
    } else {
      total += prod;
    }
  }
  return static_cast<double>(total);
}

/// Independent evaluation of the lane kernel's exact floating-point DAG:
/// subsets are enumerated directly (row sums recomputed from scratch per
/// subset — no Gray-code increments, no tables, no skip counter), but
/// terms land in the same 8 per-lane Neumaier accumulators, lanes fold in
/// lane order, and chunk pairs fold in chunk order, mirroring
/// RyserChunkRanges / RyserImpl. Any correct lane kernel must reproduce
/// this bitwise at every n.
double ReferenceRyserLanes(const std::vector<uint64_t>& rows) {
  const size_t n = rows.size();
  if (n == 0) return 1.0;
  const auto ranges = RyserChunkRanges(n);
  std::vector<std::pair<double, double>> pairs;
  pairs.reserve(ranges.size());
  for (const auto& [begin, end] : ranges) {
    double lanes_s[internal::kRyserLanes] = {0.0};
    double lanes_c[internal::kRyserLanes] = {0.0};
    for (uint64_t iter = begin; iter < end; ++iter) {
      const uint64_t subset = iter ^ (iter >> 1);
      const size_t lane = iter % internal::kRyserLanes;
      double prod =
          static_cast<double>(std::popcount(rows[0] & subset));
      for (size_t i = 1; i < n; ++i) {
        prod *= static_cast<double>(std::popcount(rows[i] & subset));
      }
      const bool negative =
          ((n - static_cast<size_t>(std::popcount(subset))) & 1) != 0;
      internal::NeumaierAdd(&lanes_s[lane], &lanes_c[lane],
                            negative ? -prod : prod);
    }
    double fs = 0.0;
    double fc = 0.0;
    for (double s : lanes_s) internal::NeumaierAdd(&fs, &fc, s);
    for (double c : lanes_c) internal::NeumaierAdd(&fs, &fc, c);
    pairs.emplace_back(fs, fc);
  }
  if (pairs.size() == 1) return pairs[0].first + pairs[0].second;
  double fs = 0.0;
  double fc = 0.0;
  for (const auto& [s, c] : pairs) internal::NeumaierAdd(&fs, &fc, s);
  for (const auto& [s, c] : pairs) internal::NeumaierAdd(&fs, &fc, c);
  return fs + fc;
}

TEST(RyserDifferentialTest, RandomMatricesAllIsasBitwise) {
  const std::vector<cpu::Isa> isas = AvailableIsas();
  ASSERT_FALSE(isas.empty());
  exec::ExecContext ctx8(exec::ExecOptions{.threads = 8});
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = 2 + rng.UniformUint64(15);  // 2..16
    // Sweep density across trials so both the dense product path and the
    // sparse zero-row skip path are exercised heavily.
    const double density = 0.1 + 0.8 * rng.UniformDouble();
    std::vector<uint64_t> rows(n, 0);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        if (rng.Bernoulli(density)) rows[i] |= (1ULL << j);
      }
    }
    const double lanes_ref = ReferenceRyserLanes(rows);
    for (cpu::Isa isa : isas) {
      auto seq = PermanentRyserForIsa(rows, isa);
      ASSERT_TRUE(seq.ok()) << seq.status().ToString();
      EXPECT_EQ(*seq, lanes_ref)
          << "trial=" << trial << " n=" << n << " density=" << density
          << " isa=" << cpu::IsaName(isa);
      auto par = PermanentRyserForIsa(rows, isa, &ctx8);
      ASSERT_TRUE(par.ok());
      EXPECT_EQ(*par, lanes_ref)
          << "trial=" << trial << " n=" << n << " threads=8 isa="
          << cpu::IsaName(isa);
    }
    // Against the long-double textbook loop: bitwise while every term
    // product fits a double exactly (n <= 12: 12^12 < 2^53), within
    // compensated-summation slack beyond.
    const double textbook = ReferenceRyser(rows);
    if (n <= 12) {
      EXPECT_EQ(lanes_ref, textbook)
          << "trial=" << trial << " n=" << n << " density=" << density;
    } else {
      EXPECT_NEAR(lanes_ref, textbook,
                  1e-9 * std::max(1.0, std::fabs(textbook)))
          << "trial=" << trial << " n=" << n << " density=" << density;
    }
  }
}

TEST(RyserDifferentialTest, LargeMatricesAllIsasBitwise) {
  // The big-n path: chunked iteration spaces, high columns spanning the
  // full mask, dense products far beyond 2^53. Cross-ISA and cross-thread
  // bit-identity must hold all the way to kMaxPermanentN. (Excluded from
  // the TSan preset by name — 2^26 subsets under TSan is too slow.)
  const std::vector<cpu::Isa> isas = AvailableIsas();
  ASSERT_FALSE(isas.empty());
  exec::ExecContext ctx8(exec::ExecOptions{.threads = 8});
  Rng rng(4242);
  for (const size_t n : {size_t{20}, size_t{24}, size_t{26}}) {
    std::vector<uint64_t> rows(n, 0);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        if (rng.Bernoulli(0.5)) rows[i] |= (1ULL << j);
      }
      // Guarantee a nonzero row so the product path stays hot.
      if (rows[i] == 0) rows[i] = 1ULL << (i % n);
    }
    auto first = PermanentRyserForIsa(rows, isas.front());
    ASSERT_TRUE(first.ok());
    for (cpu::Isa isa : isas) {
      auto seq = PermanentRyserForIsa(rows, isa);
      ASSERT_TRUE(seq.ok());
      EXPECT_EQ(*seq, *first) << "n=" << n << " isa=" << cpu::IsaName(isa);
      auto par = PermanentRyserForIsa(rows, isa, &ctx8);
      ASSERT_TRUE(par.ok());
      EXPECT_EQ(*par, *first)
          << "n=" << n << " threads=8 isa=" << cpu::IsaName(isa);
    }
  }
}

TEST(RyserDifferentialTest, ZeroRowAndZeroColumnMatrices) {
  // An all-zero row kills every subset: the skip path must still return
  // exactly 0.0, matching the reference.
  std::vector<uint64_t> rows = {0b1011, 0b0000, 0b1110, 0b0111};
  auto p = PermanentRyser(rows);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(*p, 0.0);
  EXPECT_EQ(*p, ReferenceRyser(rows));

  // A zero column (no row contains column 2).
  std::vector<uint64_t> cols = {0b1011, 0b0011, 0b1010, 0b0011};
  auto q = PermanentRyser(cols);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(*q, ReferenceRyser(cols));
}

TEST(RyserDifferentialTest, ParallelChunkingMatchesReference) {
  // n >= kRyserParallelMinN engages the chunked path; with and without a
  // thread pool the value must equal the lane reference exactly (and the
  // textbook loop within compensated-summation slack).
  Rng rng(7);
  const size_t n = 15;
  std::vector<uint64_t> rows(n, 0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (rng.Bernoulli(0.4)) rows[i] |= (1ULL << j);
    }
  }
  const double expected = ReferenceRyserLanes(rows);
  auto seq = PermanentRyser(rows);
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(*seq, expected);
  exec::ExecContext ctx(exec::ExecOptions{.threads = 4});
  auto par = PermanentRyser(rows, &ctx);
  ASSERT_TRUE(par.ok());
  EXPECT_EQ(*par, expected);
  const double textbook = ReferenceRyser(rows);
  EXPECT_NEAR(expected, textbook, 1e-9 * std::max(1.0, std::fabs(textbook)));
}

TEST(RyserDifferentialTest, ChunkRangesCoverTheIterationSpace) {
  EXPECT_TRUE(RyserChunkRanges(0).empty());
  const auto small = RyserChunkRanges(5);
  ASSERT_EQ(small.size(), 1u);
  EXPECT_EQ(small[0], (std::pair<uint64_t, uint64_t>{1, 32}));
  const auto big = RyserChunkRanges(14);
  ASSERT_EQ(big.size(), kRyserChunks);
  uint64_t next = 1;
  for (const auto& [begin, end] : big) {
    EXPECT_EQ(begin, next);
    EXPECT_LT(begin, end);
    next = end;
  }
  EXPECT_EQ(next, uint64_t{1} << 14);
}

TEST(PermanentBatchTest, MatchesSinglesBitwise) {
  Rng rng(31337);
  std::vector<std::vector<uint64_t>> matrices;
  for (const size_t n : {size_t{0}, size_t{1}, size_t{4}, size_t{8},
                         size_t{12}, size_t{15}}) {
    std::vector<uint64_t> rows(n, 0);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        if (rng.Bernoulli(0.6)) rows[i] |= (1ULL << j);
      }
      rows[i] |= 1ULL << i;  // forced diagonal: permanent stays positive
    }
    matrices.push_back(std::move(rows));
  }
  auto batch = PermanentBatch(matrices);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), matrices.size());
  for (size_t i = 0; i < matrices.size(); ++i) {
    auto single = PermanentRyser(matrices[i]);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ((*batch)[i], *single) << "matrix " << i;
  }
}

TEST(PermanentBatchTest, RejectsAnyInvalidMatrixUpfront) {
  std::vector<std::vector<uint64_t>> matrices;
  matrices.push_back({0b11, 0b11});
  matrices.push_back({0b111, 0b101});  // mask wider than the 2x2 matrix
  EXPECT_FALSE(PermanentBatch(matrices).ok());
  matrices[1] = std::vector<uint64_t>(kMaxPermanentN + 1, 1);
  EXPECT_FALSE(PermanentBatch(matrices).ok());
  matrices.pop_back();
  auto ok = PermanentBatch(matrices);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ((*ok)[0], 2.0);
}

TEST(RyserDifferentialTest, DiagonalAbsentMinorPath) {
  // ExactExpectedCracksByPermanent drops row/column x per item; items with
  // no diagonal edge contribute 0 and must not build a minor at all.
  // Reference: explicit minors via the same formula.
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 3 + rng.UniformUint64(6);  // 3..8
    std::vector<std::vector<ItemId>> adj(n);
    std::vector<uint64_t> rows(n, 0);
    for (size_t a = 0; a < n; ++a) {
      for (size_t x = 0; x < n; ++x) {
        // Keep the diagonal only sometimes; ensure nonempty rows.
        const bool edge = (a == x) ? rng.Bernoulli(0.6) : rng.Bernoulli(0.7);
        if (edge) {
          adj[a].push_back(static_cast<ItemId>(x));
          rows[a] |= (1ULL << x);
        }
      }
      if (adj[a].empty()) {
        const auto x = static_cast<ItemId>((a + 1) % n);
        adj[a].push_back(x);
        std::sort(adj[a].begin(), adj[a].end());
        rows[a] |= (1ULL << x);
      }
    }
    auto graph = BipartiteGraph::FromAdjacency(n, adj);
    ASSERT_TRUE(graph.ok());
    const double total = ReferenceRyser(rows);
    auto cracked = ExactExpectedCracksByPermanent(*graph);
    if (total <= 0.0) {
      EXPECT_FALSE(cracked.ok());
      continue;
    }
    ASSERT_TRUE(cracked.ok()) << cracked.status().ToString();
    // Per-item ratios folded with the library's fixed-order pairwise sum
    // so the comparison stays bitwise.
    std::vector<double> ratios(n, 0.0);
    for (size_t x = 0; x < n; ++x) {
      if (!(rows[x] & (1ULL << x))) continue;
      std::vector<uint64_t> minor;
      const uint64_t low_mask = (1ULL << x) - 1;
      for (size_t i = 0; i < n; ++i) {
        if (i == x) continue;
        uint64_t row = rows[i];
        minor.push_back((row & low_mask) | ((row >> (x + 1)) << x));
      }
      ratios[x] = ReferenceRyser(minor) / total;
    }
    EXPECT_EQ(*cracked, exec::PairwiseSum(ratios))
        << "trial=" << trial << " n=" << n;
  }
}

// --------------------------------------------------------- reference CSR

Result<FrequencyGroups> GroupsFromSupports(std::vector<SupportCount> s,
                                           size_t m) {
  ANONSAFE_ASSIGN_OR_RETURN(FrequencyTable t,
                            FrequencyTable::FromSupports(std::move(s), m));
  return FrequencyGroups::Build(t);
}

/// vector<vector> adjacency built by direct stabbing — what BipartiteGraph
/// stored before the CSR layout.
struct ReferenceAdjacency {
  std::vector<std::vector<ItemId>> items_of_anon;
  std::vector<std::vector<ItemId>> anons_of_item;
  size_t num_edges = 0;
};

ReferenceAdjacency BuildReferenceAdjacency(const FrequencyGroups& observed,
                                           const BeliefFunction& belief) {
  const size_t n = observed.num_items();
  ReferenceAdjacency ref;
  ref.items_of_anon.resize(n);
  ref.anons_of_item.resize(n);
  for (ItemId x = 0; x < n; ++x) {
    const BeliefInterval& iv = belief.interval(x);
    size_t lo = 0, hi = 0;
    if (!observed.StabRange(iv.lo, iv.hi, &lo, &hi)) continue;
    for (size_t g = lo; g <= hi; ++g) {
      for (ItemId a : observed.group_items(g)) {
        ref.items_of_anon[a].push_back(x);
        ref.anons_of_item[x].push_back(a);
        ++ref.num_edges;
      }
    }
  }
  for (auto& row : ref.items_of_anon) std::sort(row.begin(), row.end());
  for (auto& row : ref.anons_of_item) std::sort(row.begin(), row.end());
  return ref;
}

TEST(CsrGraphDifferentialTest, RandomGraphsMatchReferenceAdjacency) {
  Rng rng(555);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = 2 + rng.UniformUint64(15);  // 2..16
    const size_t m = 100;
    std::vector<SupportCount> supports(n);
    for (size_t i = 0; i < n; ++i) {
      supports[i] = static_cast<SupportCount>(1 + rng.UniformUint64(m));
    }
    auto groups = GroupsFromSupports(supports, m);
    ASSERT_TRUE(groups.ok());
    std::vector<BeliefInterval> intervals(n);
    for (size_t i = 0; i < n; ++i) {
      const double f =
          static_cast<double>(supports[i]) / static_cast<double>(m);
      // A mix of wide, tight, and non-stabbing intervals.
      const double below = 0.3 * rng.UniformDouble();
      const double above = 0.3 * rng.UniformDouble();
      double lo = std::max(0.0, f - below);
      double hi = std::min(1.0, f + above);
      if (rng.Bernoulli(0.15)) {  // displaced: may stab nothing
        lo = std::min(1.0, f + 0.001);
        hi = std::min(1.0, lo + 0.002);
      }
      intervals[i] = {lo, hi};
    }
    auto belief = BeliefFunction::Create(intervals);
    ASSERT_TRUE(belief.ok());
    auto graph = BipartiteGraph::Build(*groups, *belief);
    ASSERT_TRUE(graph.ok());
    const ReferenceAdjacency ref = BuildReferenceAdjacency(*groups, *belief);

    EXPECT_EQ(graph->num_edges(), ref.num_edges) << "trial=" << trial;
    for (ItemId a = 0; a < n; ++a) {
      const std::span<const ItemId> row = graph->items_of_anon(a);
      ASSERT_EQ(row.size(), ref.items_of_anon[a].size())
          << "trial=" << trial << " anon=" << a;
      EXPECT_TRUE(std::equal(row.begin(), row.end(),
                             ref.items_of_anon[a].begin()));
      EXPECT_EQ(graph->anon_degree(a), ref.items_of_anon[a].size());
    }
    for (ItemId x = 0; x < n; ++x) {
      const std::span<const ItemId> row = graph->anons_of_item(x);
      ASSERT_EQ(row.size(), ref.anons_of_item[x].size())
          << "trial=" << trial << " item=" << x;
      EXPECT_TRUE(std::equal(row.begin(), row.end(),
                             ref.anons_of_item[x].begin()));
      EXPECT_EQ(graph->item_outdegree(x), ref.anons_of_item[x].size());
    }
    // Row masks mirror the adjacency exactly (n <= 16 here).
    auto masks = graph->ToRowMasks();
    ASSERT_TRUE(masks.ok());
    for (ItemId a = 0; a < n; ++a) {
      uint64_t expected_mask = 0;
      for (ItemId x : ref.items_of_anon[a]) expected_mask |= (1ULL << x);
      EXPECT_EQ((*masks)[a], expected_mask);
      for (ItemId x = 0; x < n; ++x) {
        EXPECT_EQ(graph->HasEdge(a, x),
                  std::binary_search(ref.items_of_anon[a].begin(),
                                     ref.items_of_anon[a].end(), x));
      }
    }
    // The compressed structure agrees on outdegrees (pre-propagation).
    auto cs = ConsistencyStructure::Build(*groups, *belief);
    ASSERT_TRUE(cs.ok());
    for (ItemId x = 0; x < n; ++x) {
      EXPECT_EQ(cs->outdegree(x), ref.anons_of_item[x].size());
    }
  }
}

TEST(CsrGraphDifferentialTest, RowMaskBit63EdgeCase) {
  // 64 items: masks must use the full word, including bit 63.
  const size_t n = 64;
  std::vector<std::vector<ItemId>> adj(n);
  adj[0] = {0, 63};
  adj[63] = {62, 63};
  for (size_t a = 1; a < 63; ++a) adj[a] = {static_cast<ItemId>(a)};
  auto graph = BipartiteGraph::FromAdjacency(n, adj);
  ASSERT_TRUE(graph.ok());
  ASSERT_TRUE(graph->has_row_masks());
  auto masks = graph->ToRowMasks();
  ASSERT_TRUE(masks.ok());
  EXPECT_EQ((*masks)[0], 1ULL | (1ULL << 63));
  EXPECT_EQ((*masks)[63], (1ULL << 62) | (1ULL << 63));
  EXPECT_TRUE(graph->HasEdge(0, 63));
  EXPECT_TRUE(graph->HasEdge(63, 63));
  EXPECT_FALSE(graph->HasEdge(63, 0));

  // 65 items: no masks; binary-search edge tests still work and
  // ToRowMasks reports OutOfRange.
  std::vector<std::vector<ItemId>> big(65);
  big[64] = {0, 64};
  auto wide = BipartiteGraph::FromAdjacency(65, big);
  ASSERT_TRUE(wide.ok());
  EXPECT_FALSE(wide->has_row_masks());
  EXPECT_TRUE(wide->HasEdge(64, 64));
  EXPECT_FALSE(wide->HasEdge(64, 1));
  EXPECT_FALSE(wide->ToRowMasks().ok());
}

// ------------------------------------------------ propagation structures

TEST(ConsistencyDifferentialTest, ItemSideForcingCascade) {
  // Staircase: n singleton groups, item i covers groups [0, i]. Item 0 is
  // forced first; each forcing empties one group and makes the next item
  // degree-1 in turn — a full cascade through FindFirstNonEmptyGroup with
  // an ever-longer emptied prefix.
  const size_t n = 48;
  const size_t m = 1000;
  std::vector<SupportCount> supports(n);
  std::vector<BeliefInterval> intervals(n);
  for (size_t i = 0; i < n; ++i) {
    supports[i] = static_cast<SupportCount>(10 * (i + 1));
    const double hi = static_cast<double>(10 * (i + 1)) / m;
    intervals[i] = {0.0, hi + 1e-9};
  }
  auto groups = GroupsFromSupports(supports, m);
  ASSERT_TRUE(groups.ok());
  ASSERT_EQ(groups->num_groups(), n);
  auto belief = BeliefFunction::Create(intervals);
  ASSERT_TRUE(belief.ok());
  auto cs = ConsistencyStructure::Build(*groups, *belief);
  ASSERT_TRUE(cs.ok());
  auto stats = cs->PropagateDegreeOne();
  EXPECT_FALSE(stats.contradiction);
  EXPECT_EQ(stats.forced_pairs, n);
  for (ItemId x = 0; x < n; ++x) {
    EXPECT_TRUE(cs->item_forced(x)) << "item " << x;
    EXPECT_EQ(cs->outdegree(x), 1u);
  }
  for (size_t g = 0; g < n; ++g) EXPECT_EQ(cs->group_remaining(g), 0u);
}

TEST(ConsistencyDifferentialTest, AnonSideForcingCascade) {
  // Reversed staircase: item i covers groups [i, n-1], so group 0 is
  // covered by exactly one item while every item (but the last) still has
  // many candidates. The cascade runs entirely through the anonymized-side
  // rule and its segment-tree locate.
  const size_t n = 48;
  const size_t m = 1000;
  std::vector<SupportCount> supports(n);
  std::vector<BeliefInterval> intervals(n);
  for (size_t i = 0; i < n; ++i) {
    supports[i] = static_cast<SupportCount>(10 * (i + 1));
    const double lo = static_cast<double>(10 * (i + 1)) / m;
    intervals[i] = {lo - 1e-9, 1.0};
  }
  auto groups = GroupsFromSupports(supports, m);
  ASSERT_TRUE(groups.ok());
  auto belief = BeliefFunction::Create(intervals);
  ASSERT_TRUE(belief.ok());
  auto cs = ConsistencyStructure::Build(*groups, *belief);
  ASSERT_TRUE(cs.ok());
  auto stats = cs->PropagateDegreeOne();
  EXPECT_FALSE(stats.contradiction);
  EXPECT_EQ(stats.forced_pairs, n);
  for (ItemId x = 0; x < n; ++x) {
    EXPECT_TRUE(cs->item_forced(x)) << "item " << x;
  }
}

TEST(ConsistencyDifferentialTest, BeliefGroupsMatchesMapReference) {
  Rng rng(321);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t n = 1 + rng.UniformUint64(30);
    const size_t m = 50;
    std::vector<SupportCount> supports(n);
    for (size_t i = 0; i < n; ++i) {
      supports[i] = static_cast<SupportCount>(1 + rng.UniformUint64(m));
    }
    auto groups = GroupsFromSupports(supports, m);
    ASSERT_TRUE(groups.ok());
    std::vector<BeliefInterval> intervals(n);
    for (size_t i = 0; i < n; ++i) {
      const double f =
          static_cast<double>(supports[i]) / static_cast<double>(m);
      if (rng.Bernoulli(0.2)) {
        // Displaced above f (likely dead); stay inside [0, 1].
        const double lo = std::min(1.0, f + 0.001);
        intervals[i] = {lo, std::min(1.0, lo + 0.001)};
      } else {
        // Coarse bounds so distinct items often share a range.
        const double lo = 0.2 * std::floor(f / 0.2);
        intervals[i] = {lo, std::min(1.0, lo + 0.2 + 0.1 * (i % 2))};
      }
    }
    auto belief = BeliefFunction::Create(intervals);
    ASSERT_TRUE(belief.ok());
    auto cs = ConsistencyStructure::Build(*groups, *belief);
    ASSERT_TRUE(cs.ok());

    // Reference: the previous std::map-based grouping on stab ranges.
    std::map<std::pair<size_t, size_t>, std::vector<ItemId>> by_range;
    std::vector<ItemId> dead;
    for (ItemId x = 0; x < n; ++x) {
      size_t lo = 0, hi = 0;
      if (groups->StabRange(intervals[x].lo, intervals[x].hi, &lo, &hi)) {
        by_range[{lo, hi}].push_back(x);
      } else {
        dead.push_back(x);
      }
    }
    std::vector<std::vector<ItemId>> expected;
    for (auto& [range, members] : by_range) expected.push_back(members);
    if (!dead.empty()) expected.push_back(dead);

    EXPECT_EQ(cs->BeliefGroups(), expected) << "trial=" << trial;
  }
}

// ------------------------------------------------------ cached α probes

TEST(AlphaProbeCacheTest, CachedSweepIsBitIdenticalToUncached) {
  const size_t n = 60;
  const size_t m = 500;
  std::vector<SupportCount> supports(n);
  Rng rng(11);
  for (size_t i = 0; i < n; ++i) {
    supports[i] = static_cast<SupportCount>(1 + rng.UniformUint64(m));
  }
  auto table = FrequencyTable::FromSupports(supports, m);
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  auto base = MakeCompliantIntervalBelief(*table, groups.MedianGap());
  ASSERT_TRUE(base.ok());
  auto sweep = AlphaCompliancySweep::Create(*table, *base, 5, 17);
  ASSERT_TRUE(sweep.ok());
  const AlphaCompliancySweep::ProbeCache cache =
      sweep->MakeProbeCache(groups);

  std::vector<bool> interest(n, false);
  for (size_t i = 0; i < n; i += 3) interest[i] = true;

  for (double alpha : {0.0, 0.125, 0.3, 0.5, 0.8125, 1.0}) {
    auto plain = sweep->AverageOEstimate(groups, alpha);
    auto cached = sweep->AverageOEstimate(groups, cache, alpha);
    ASSERT_TRUE(plain.ok() && cached.ok());
    EXPECT_EQ(*plain, *cached) << "alpha=" << alpha;

    const OEstimateScope scope{.include = &interest};
    auto plain_items = sweep->AverageOEstimate(groups, alpha, {}, nullptr,
                                               scope);
    auto cached_items = sweep->AverageOEstimate(groups, cache, alpha, {},
                                                nullptr, scope);
    ASSERT_TRUE(plain_items.ok() && cached_items.ok());
    EXPECT_EQ(*plain_items, *cached_items) << "alpha=" << alpha;

    // Thread count must not perturb the cached path either.
    exec::ExecContext ctx(exec::ExecOptions{.threads = 4});
    auto cached_mt = sweep->AverageOEstimate(groups, cache, alpha, {}, &ctx);
    ASSERT_TRUE(cached_mt.ok());
    EXPECT_EQ(*cached_mt, *cached) << "alpha=" << alpha;
  }

  // A cache of the wrong size is rejected rather than misused.
  AlphaCompliancySweep::ProbeCache bad;
  bad.base.resize(n - 1);
  bad.displaced.resize(n - 1);
  EXPECT_FALSE(sweep->AverageOEstimate(groups, bad, 0.5).ok());
}

TEST(AlphaProbeCacheTest, FromRangesRejectsMalformedInput) {
  auto groups = GroupsFromSupports({10, 20, 30}, 100);
  ASSERT_TRUE(groups.ok());
  std::vector<ItemStabRange> ranges(3);
  ranges[0] = {true, 0, 1};
  ranges[1] = {false, 0, 0};
  ranges[2] = {true, 2, 2};
  std::vector<bool> all(3, true);
  const OEstimateScope scope{.include = &all};
  auto ok = ComputeOEstimate(*groups, ranges, {}, nullptr, scope);
  ASSERT_TRUE(ok.ok());

  ranges[2] = {true, 2, 5};  // hi outside the group domain
  EXPECT_FALSE(ComputeOEstimate(*groups, ranges, {}, nullptr, scope).ok());
  ranges[2] = {true, 2, 1};  // inverted
  EXPECT_FALSE(ComputeOEstimate(*groups, ranges, {}, nullptr, scope).ok());
  ranges.pop_back();  // wrong arity
  std::vector<bool> two(2, true);
  EXPECT_FALSE(
      ComputeOEstimate(*groups, ranges, {}, nullptr, {.include = &two}).ok());
}

// ----------------------------------------------------------- scratch pool

TEST(ScratchPoolTest, ReusesRetiredBuffer) {
  exec::ScratchVec<double>::DrainThreadFreeList();
  const double* retired = nullptr;
  {
    exec::ScratchVec<double> a(1024);
    retired = a.data();
  }
  exec::ScratchVec<double> b(1024);
  EXPECT_EQ(b.data(), retired);
  exec::ScratchVec<double>::DrainThreadFreeList();
}

TEST(ScratchPoolTest, AlignedScratchIs64ByteAligned) {
  exec::AlignedScratchVec<double>::DrainThreadFreeList();
  for (const size_t n : {size_t{1}, size_t{7}, size_t{37}, size_t{1024}}) {
    exec::AlignedScratchVec<double> v(n);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(v.data()) % 64, 0u) << "n=" << n;
  }
  // Aligned buffers pool separately from plain ones: retiring an aligned
  // buffer must never hand it to a plain ScratchVec<double> (or vice
  // versa), so the plain free list stays empty here.
  exec::ScratchVec<double>::DrainThreadFreeList();
  { exec::AlignedScratchVec<double> a(64); }
  exec::ScratchVec<double> b(64);
  exec::AlignedScratchVec<double> c(64);
  EXPECT_NE(static_cast<const void*>(b.data()),
            static_cast<const void*>(c.data()));
  exec::AlignedScratchVec<double>::DrainThreadFreeList();
  exec::ScratchVec<double>::DrainThreadFreeList();
}

TEST(ScratchPoolTest, OversizedBuffersAreNotPooled) {
  exec::ScratchVec<double>::DrainThreadFreeList();
  const size_t huge = exec::kMaxRetainedBytes / sizeof(double) + 1;
  const double* retired = nullptr;
  {
    exec::ScratchVec<double> a(huge);
    retired = a.data();
  }
  exec::ScratchVec<double> b;
  EXPECT_EQ(b.size(), 0u);
  // The free list was empty, so b's buffer cannot be the huge one.
  b.resize(8);
  (void)retired;
  exec::ScratchVec<double>::DrainThreadFreeList();
}

// ------------------------------------------------- sampler probe kernels

size_t RefFixedPoints(const std::vector<ItemId>& v, const uint8_t* interest) {
  size_t count = 0;
  for (size_t i = 0; i < v.size(); ++i) {
    if (v[i] == static_cast<ItemId>(i) &&
        (interest == nullptr || interest[i] != 0)) {
      ++count;
    }
  }
  return count;
}

TEST(SamplerProbeDifferentialTest, CountFixedPointsAllIsas) {
  const std::vector<cpu::Isa> isas = AvailableIsas();
  Rng rng(808);
  // Sizes straddling every vector width and tail shape (0, partial
  // blocks, exact blocks, one past, and large).
  for (const size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{8},
                         size_t{9}, size_t{15}, size_t{16}, size_t{17},
                         size_t{31}, size_t{64}, size_t{100}, size_t{1000}}) {
    std::vector<ItemId> v(n);
    std::vector<uint8_t> interest(n);
    for (size_t i = 0; i < n; ++i) {
      // ~half the positions are fixed points; others point elsewhere or
      // are unmatched (kInvalidItem never equals an index).
      v[i] = rng.Bernoulli(0.5) ? static_cast<ItemId>(i)
             : rng.Bernoulli(0.5)
                 ? static_cast<ItemId>(rng.UniformUint64(n))
                 : kInvalidItem;
      interest[i] = rng.Bernoulli(0.5) ? 1 : 0;
    }
    const size_t want_all = RefFixedPoints(v, nullptr);
    const size_t want_masked = RefFixedPoints(v, interest.data());
    for (cpu::Isa isa : isas) {
      const internal::KernelVTable* k = internal::KernelsFor(isa);
      ASSERT_NE(k, nullptr);
      EXPECT_EQ(k->count_fixed_points(v.data(), nullptr, n), want_all)
          << "n=" << n << " isa=" << cpu::IsaName(isa);
      EXPECT_EQ(k->count_fixed_points(v.data(), interest.data(), n),
                want_masked)
          << "n=" << n << " isa=" << cpu::IsaName(isa) << " masked";
    }
  }
}

TEST(SamplerProbeDifferentialTest, CountConsistentIdentityAllIsas) {
  const std::vector<cpu::Isa> isas = AvailableIsas();
  Rng rng(909);
  for (const size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{4},
                         size_t{5}, size_t{8}, size_t{9}, size_t{16},
                         size_t{17}, size_t{100}, size_t{1000}}) {
    std::vector<size_t> group(n), lo(n), hi(n);
    std::vector<uint8_t> has_range(n);
    for (size_t i = 0; i < n; ++i) {
      group[i] = rng.UniformUint64(20);
      lo[i] = rng.UniformUint64(20);
      hi[i] = lo[i] + rng.UniformUint64(5);
      has_range[i] = rng.Bernoulli(0.8) ? 1 : 0;
    }
    size_t want = 0;
    for (size_t i = 0; i < n; ++i) {
      if (has_range[i] != 0 && lo[i] <= group[i] && group[i] <= hi[i]) {
        ++want;
      }
    }
    for (cpu::Isa isa : isas) {
      const internal::KernelVTable* k = internal::KernelsFor(isa);
      ASSERT_NE(k, nullptr);
      EXPECT_EQ(k->count_consistent_identity(group.data(), lo.data(),
                                             hi.data(), has_range.data(), n),
                want)
          << "n=" << n << " isa=" << cpu::IsaName(isa);
    }
  }
}

// ----------------------------------------------------------- dispatch

TEST(SimdDispatchTest, ParseIsaNames) {
  cpu::Isa isa = cpu::Isa::kAvx512;
  EXPECT_TRUE(cpu::ParseIsaName("scalar", &isa));
  EXPECT_EQ(isa, cpu::Isa::kScalar);
  EXPECT_TRUE(cpu::ParseIsaName("avx2", &isa));
  EXPECT_EQ(isa, cpu::Isa::kAvx2);
  EXPECT_TRUE(cpu::ParseIsaName("avx512", &isa));
  EXPECT_EQ(isa, cpu::Isa::kAvx512);
  EXPECT_FALSE(cpu::ParseIsaName("sse9", &isa));
  EXPECT_FALSE(cpu::ParseIsaName("", &isa));
}

TEST(SimdDispatchTest, ActiveKernelMatchesActiveIsa) {
  // Scalar is always supported and compiled in.
  EXPECT_TRUE(cpu::IsaSupported(cpu::Isa::kScalar));
  ASSERT_NE(internal::KernelsFor(cpu::Isa::kScalar), nullptr);
  // The resolved vtable runs the active tier whenever that tier's TU is
  // available, and never a tier above it (ANONSAFE_FORCE_ISA demotions
  // included — run_all.sh re-runs this binary under each forced value).
  const internal::KernelVTable& k = internal::Kernels();
  EXPECT_TRUE(cpu::IsaSupported(k.isa));
  EXPECT_LE(static_cast<int>(k.isa), static_cast<int>(cpu::ActiveIsa()));
  if (internal::KernelsFor(cpu::ActiveIsa()) != nullptr) {
    EXPECT_EQ(k.isa, cpu::ActiveIsa());
    EXPECT_STREQ(k.name, cpu::IsaName(cpu::ActiveIsa()));
  }
}

TEST(SimdDispatchTest, ConcurrentFirstUseIsRaceFree) {
  // Dispatch resolution is a magic static; hammer it from 8 threads (the
  // TSan preset runs this binary, so an init race would be reported).
  // Each thread also runs a small permanent through the resolved kernel.
  const std::vector<uint64_t> rows = {0b1101, 0b0111, 0b1011, 0b1110};
  auto expect = PermanentRyser(rows);
  ASSERT_TRUE(expect.ok());
  std::vector<std::thread> threads;
  std::vector<const internal::KernelVTable*> seen(8, nullptr);
  std::vector<double> values(8, 0.0);
  for (size_t t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      seen[t] = &internal::Kernels();
      auto p = PermanentRyser(rows);
      values[t] = p.ok() ? *p : -1.0;
    });
  }
  for (std::thread& th : threads) th.join();
  for (size_t t = 0; t < 8; ++t) {
    EXPECT_EQ(seen[t], &internal::Kernels());
    EXPECT_EQ(values[t], *expect);
  }
}

// --------------------------------------------------------------- burn-in

TEST(SamplerOptionsTest, EffectiveBurnInClampsOverflowAndNaN) {
  SamplerOptions options;
  options.burn_in_sweeps = 300;
  options.burn_in_scale = 2.0;
  EXPECT_EQ(options.EffectiveBurnIn(100), 300u);   // floor wins
  EXPECT_EQ(options.EffectiveBurnIn(1000), 2000u); // scaled wins
  EXPECT_EQ(options.EffectiveBurnIn(0), 300u);

  options.burn_in_scale = 0.0;
  EXPECT_EQ(options.EffectiveBurnIn(std::numeric_limits<size_t>::max()),
            300u);

  // Products beyond the size_t range clamp instead of invoking UB.
  options.burn_in_scale = 1e300;
  EXPECT_EQ(options.EffectiveBurnIn(1000), kMaxBurnInSweeps);
  options.burn_in_scale = std::numeric_limits<double>::infinity();
  EXPECT_EQ(options.EffectiveBurnIn(1), kMaxBurnInSweeps);

  // A NaN product falls back to the unscaled floor.
  options.burn_in_scale = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(options.EffectiveBurnIn(1000), 300u);
}

TEST(SamplerOptionsTest, CreateRejectsNonFiniteBurnInScale) {
  auto table = FrequencyTable::FromSupports({10, 20, 30}, 100);
  ASSERT_TRUE(table.ok());
  FrequencyGroups groups = FrequencyGroups::Build(*table);
  auto belief = MakeCompliantIntervalBelief(*table, 0.01);
  ASSERT_TRUE(belief.ok());

  SamplerOptions options;
  options.burn_in_scale = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(MatchingSampler::Create(groups, *belief, options).ok());
  options.burn_in_scale = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(MatchingSampler::Create(groups, *belief, options).ok());
  options.burn_in_scale = -1.0;
  EXPECT_FALSE(MatchingSampler::Create(groups, *belief, options).ok());
  options.burn_in_scale = 2.0;
  EXPECT_TRUE(MatchingSampler::Create(groups, *belief, options).ok());
}

}  // namespace
}  // namespace anonsafe
