#include "graph/bipartite_graph.h"

#include <algorithm>
#include <string>

#include "obs/scoped_timer.h"

namespace anonsafe {

Result<BipartiteGraph> BipartiteGraph::Build(const FrequencyGroups& observed,
                                             const BeliefFunction& belief,
                                             size_t max_edges) {
  obs::ScopedTimer timer("graph.bipartite_build");
  if (observed.num_items() != belief.num_items()) {
    return Status::InvalidArgument(
        "observed data covers " + std::to_string(observed.num_items()) +
        " items, belief function " + std::to_string(belief.num_items()));
  }
  const size_t n = observed.num_items();
  const size_t k = observed.num_groups();

  // First pass: total edge count via the O(log k) range counts, plus a
  // per-group cover difference array (the anon-side degree of every
  // anonymized item in group g is the number of item ranges covering g).
  size_t total_edges = 0;
  std::vector<std::pair<size_t, size_t>> ranges(n);
  std::vector<bool> has_range(n, false);
  std::vector<int64_t> cover_diff(k + 1, 0);
  for (ItemId x = 0; x < n; ++x) {
    const BeliefInterval& iv = belief.interval(x);
    size_t lo = 0, hi = 0;
    if (observed.StabRange(iv.lo, iv.hi, &lo, &hi)) {
      has_range[x] = true;
      ranges[x] = {lo, hi};
      total_edges += observed.RangeItemCount(lo, hi);
      cover_diff[lo] += 1;
      cover_diff[hi + 1] -= 1;
    }
  }
  if (total_edges > max_edges) {
    return Status::OutOfRange(
        "explicit graph would have " + std::to_string(total_edges) +
        " edges, budget is " + std::to_string(max_edges) +
        "; use ConsistencyStructure for large instances");
  }

  BipartiteGraph g;
  g.num_items_ = n;
  g.num_edges_ = total_edges;

  // Anon-side offsets: degree of anon a = cover count of its group.
  g.anon_offsets_.assign(n + 1, 0);
  {
    int64_t cover = 0;
    for (size_t grp = 0; grp < k; ++grp) {
      cover += cover_diff[grp];
      for (ItemId a : observed.group_items(grp)) {
        g.anon_offsets_[a + 1] = static_cast<size_t>(cover);
      }
    }
  }
  for (size_t a = 0; a < n; ++a) g.anon_offsets_[a + 1] += g.anon_offsets_[a];

  // Fill: walking items in ascending x keeps every anon row sorted.
  g.items_flat_.resize(total_edges);
  std::vector<size_t> cursor(g.anon_offsets_.begin(),
                             g.anon_offsets_.end() - 1);
  for (ItemId x = 0; x < n; ++x) {
    if (!has_range[x]) continue;
    auto [lo, hi] = ranges[x];
    for (size_t grp = lo; grp <= hi; ++grp) {
      for (ItemId a : observed.group_items(grp)) {
        g.items_flat_[cursor[a]++] = x;
      }
    }
  }
  g.BuildItemSideAndMasks();
  if (timer.tracing()) {
    timer.Annotate("edges", std::to_string(total_edges));
  }
  return g;
}

Result<BipartiteGraph> BipartiteGraph::FromAdjacency(
    size_t num_items, std::vector<std::vector<ItemId>> items_of_anon) {
  if (items_of_anon.size() != num_items) {
    return Status::InvalidArgument("adjacency must have one row per item");
  }
  BipartiteGraph g;
  g.num_items_ = num_items;
  g.anon_offsets_.assign(num_items + 1, 0);
  for (size_t a = 0; a < num_items; ++a) {
    auto& row = items_of_anon[a];
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
    if (!row.empty() && row.back() >= num_items) {
      return Status::InvalidArgument("edge endpoint outside domain");
    }
    g.anon_offsets_[a + 1] = g.anon_offsets_[a] + row.size();
  }
  g.num_edges_ = g.anon_offsets_[num_items];
  g.items_flat_.resize(g.num_edges_);
  for (size_t a = 0; a < num_items; ++a) {
    std::copy(items_of_anon[a].begin(), items_of_anon[a].end(),
              g.items_flat_.begin() +
                  static_cast<ptrdiff_t>(g.anon_offsets_[a]));
  }
  g.BuildItemSideAndMasks();
  return g;
}

void BipartiteGraph::BuildItemSideAndMasks() {
  const size_t n = num_items_;
  // Counting pass over the flat anon rows, then a fill in ascending a —
  // which leaves every item row sorted with no per-row sort needed.
  item_offsets_.assign(n + 1, 0);
  for (ItemId x : items_flat_) item_offsets_[x + 1] += 1;
  for (size_t x = 0; x < n; ++x) item_offsets_[x + 1] += item_offsets_[x];
  anons_flat_.resize(num_edges_);
  std::vector<size_t> cursor(item_offsets_.begin(), item_offsets_.end() - 1);
  for (size_t a = 0; a < n; ++a) {
    for (ItemId x : items_of_anon(static_cast<ItemId>(a))) {
      anons_flat_[cursor[x]++] = static_cast<ItemId>(a);
    }
  }
  if (n <= 64) {
    row_masks_.assign(n, 0);
    for (size_t a = 0; a < n; ++a) {
      for (ItemId x : items_of_anon(static_cast<ItemId>(a))) {
        row_masks_[a] |= (1ULL << x);
      }
    }
  }
}

bool BipartiteGraph::HasEdge(ItemId a, ItemId x) const {
  if (!row_masks_.empty()) {
    return (row_masks_[a] >> x) & 1;
  }
  const std::span<const ItemId> row = items_of_anon(a);
  return std::binary_search(row.begin(), row.end(), x);
}

Result<std::vector<uint64_t>> BipartiteGraph::ToRowMasks() const {
  if (num_items_ > 64) {
    return Status::OutOfRange(
        "bitmask form limited to 64 items, graph has " +
        std::to_string(num_items_));
  }
  return row_masks_;
}

}  // namespace anonsafe
