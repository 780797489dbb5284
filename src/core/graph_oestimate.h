#ifndef ANONSAFE_CORE_GRAPH_OESTIMATE_H_
#define ANONSAFE_CORE_GRAPH_OESTIMATE_H_

#include "belief/belief_function.h"
#include "core/oestimate.h"
#include "data/frequency.h"
#include "graph/bipartite_graph.h"
#include "util/result.h"

namespace anonsafe {

/// \brief O-estimate on an *explicit* consistency graph.
///
/// Section 8.1 points out that while belief functions are specific to
/// frequent-set mining, the second level of the analysis — the bipartite
/// graph — is completely general: any mechanism that sets up edges
/// (relational attribute knowledge, classification features, ...) can
/// reuse the estimators. This entry point runs Figure 5 + Figure 7
/// directly on a `BipartiteGraph`, with the same identity-surrogate
/// convention (anonymized vertex a truly corresponds to vertex a).
Result<OEstimateResult> ComputeOEstimateOnGraph(
    const BipartiteGraph& graph, const OEstimateOptions& options = {});

/// \brief The *refined* O-estimate (library extension; see
/// `ComputeMatchingCover`): prune the graph to edges usable by some
/// perfect matching, then sum 1/O_x over the refined outdegrees.
///
/// Strictly dominates Figure 7 propagation: every degree-1 forcing is a
/// special case of pruning, and tight-set artifacts like Figure 6(b)'s
/// irrelevant edge are eliminated too, so
///   naive OE <= propagated OE <= refined OE.
/// `refined OE <= exact E(X)` is not a known theorem; it holds on every
/// instance tested so far (THEORY.md). Exact whenever each
/// matching-cover component is complete bipartite
/// (in particular for the ignorant and point-valued extremes and for
/// Figure 6(b), where the plain O-estimate is biased).
///
/// Cost: one Hopcroft-Karp + one SCC pass over the explicit graph —
/// O(E sqrt(V)); needs the explicit edge set, so it is the precision tool
/// for small-to-medium domains while `ComputeOEstimate` remains the
/// O(n log n) screening tool.
///
/// Fails with FailedPrecondition when no perfect matching exists.
Result<OEstimateResult> ComputeRefinedOEstimateOnGraph(
    const BipartiteGraph& graph);

/// \brief Convenience: build the explicit graph from observed groups and
/// a belief function, then compute the refined O-estimate.
Result<OEstimateResult> ComputeRefinedOEstimate(
    const FrequencyGroups& observed, const BeliefFunction& belief,
    size_t max_edges = BipartiteGraph::kDefaultMaxEdges);

}  // namespace anonsafe

#endif  // ANONSAFE_CORE_GRAPH_OESTIMATE_H_
