#ifndef ANONSAFE_TESTS_EXACT_ORACLE_H_
#define ANONSAFE_TESTS_EXACT_ORACLE_H_

// The paper's Section 4.1 "direct method" as a test oracle: build the
// whole consistency graph, then take permanents (or enumerate every
// perfect matching). Exponential, so only for small domains; never the
// planner, which the oracle is there to check.

#include "belief/belief_function.h"
#include "data/frequency.h"
#include "graph/bipartite_graph.h"
#include "graph/permanent.h"
#include "util/result.h"

namespace anonsafe {

/// Exact E[cracks] by whole-graph permanents.
inline Result<double> OracleExpectedCracks(const FrequencyGroups& observed,
                                           const BeliefFunction& belief) {
  ANONSAFE_ASSIGN_OR_RETURN(BipartiteGraph graph,
                            BipartiteGraph::Build(observed, belief));
  return ExactExpectedCracksByPermanent(graph);
}

/// Exact crack distribution by enumerating every perfect matching.
inline Result<CrackDistribution> OracleCrackDistribution(
    const FrequencyGroups& observed, const BeliefFunction& belief) {
  ANONSAFE_ASSIGN_OR_RETURN(BipartiteGraph graph,
                            BipartiteGraph::Build(observed, belief));
  return EnumerateCrackDistribution(graph);
}

}  // namespace anonsafe

#endif  // ANONSAFE_TESTS_EXACT_ORACLE_H_
