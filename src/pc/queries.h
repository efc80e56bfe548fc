/**
 * @file
 * Advanced probabilistic-circuit queries: conditionals, posterior
 * marginals via a linear-domain flow pass, conditional
 * sampling, entropy, expectations, and pairwise mutual information.
 *
 * These are the query types the paper's probabilistic workloads issue
 * against their circuits (R2-Guard risk posteriors, NeuroPC
 * class-conditional marginals); all are exact for smooth and
 * decomposable circuits and are validated against brute-force
 * enumeration in the tests.
 */

#ifndef REASON_PC_QUERIES_H
#define REASON_PC_QUERIES_H

#include <cstdint>
#include <vector>

#include "pc/pc.h"

namespace reason {

class Rng;

namespace pc {

/**
 * log P(query, evidence) - log P(evidence).
 *
 * `query` and `evidence` are partial assignments (kMissing = unset) over
 * disjoint variable sets; fatal()s when they conflict on a variable.
 * Returns -inf when the evidence itself has zero probability.
 */
double conditionalLogProbability(const Circuit &circuit,
                                 const Assignment &query,
                                 const Assignment &evidence);

/** Posterior marginals for every variable given (partial) evidence. */
struct MarginalTable
{
    /** prob[var][val] = P(var = val | evidence). */
    std::vector<std::vector<double>> prob;
};

/**
 * All-variable posterior marginals with one upward evaluation and one
 * linear-domain flow pass (nodeFlowsInto) — O(edges) regardless of how
 * many marginals are read: P(v = val | e) is the sum over the leaves of
 * v of flow(leaf) * dist[val].  Observed variables get an indicator
 * row.  fatal()s when an evidence value is neither kMissing nor below
 * the arity, or when the evidence has zero probability.
 */
MarginalTable posteriorMarginals(const Circuit &circuit,
                                 const Assignment &evidence);

/**
 * Per-node log-derivatives d log root / d log value(n) companion:
 * log ∂root/∂v_n in linear terms, computed against the upward log-value
 * pass for `x`.  Exposed for tests and for flow-style diagnostics.
 */
std::vector<double> logDerivatives(const Circuit &circuit,
                                   const Assignment &x);

/**
 * Draw one sample from P(X | evidence) by top-down descent: sum nodes
 * choose a child proportionally to weight x child-value-under-evidence,
 * products descend into all children, leaves sample their (restricted)
 * distribution.  Exact for smooth, decomposable circuits.
 */
Assignment sampleConditional(Rng &rng, const Circuit &circuit,
                             const Assignment &evidence);

/**
 * Exact Shannon entropy (nats) of the circuit distribution by full
 * enumeration.  Testing/small models only: requires arity^numVars to be
 * enumerable.
 */
double exactEntropy(const Circuit &circuit);

/** Monte-Carlo entropy estimate: -mean log p over `samples` draws. */
double sampledEntropy(Rng &rng, const Circuit &circuit, size_t samples);

/**
 * Expectation of an additive statistic given evidence:
 * E[ sum_v f[v][X_v] | evidence ].  `f` is indexed [var][value].
 */
double expectedValue(const Circuit &circuit,
                     const std::vector<std::vector<double>> &f,
                     const Assignment &evidence);

/** Joint marginal table P(a = i, b = j) for a pair of variables. */
std::vector<std::vector<double>> pairwiseMarginal(const Circuit &circuit,
                                                  uint32_t a, uint32_t b);

/** Mutual information I(X_a; X_b) in nats under the circuit. */
double mutualInformation(const Circuit &circuit, uint32_t a, uint32_t b);

} // namespace pc
} // namespace reason

#endif // REASON_PC_QUERIES_H
