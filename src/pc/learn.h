/**
 * @file
 * Parameter learning for probabilistic circuits via flow-based EM.
 *
 * Each EM iteration accumulates expected edge/leaf usage (the circuit
 * flows) over the dataset and re-estimates sum weights and leaf
 * distributions from the normalized counts with Laplace smoothing.
 * Monotone non-decreasing training log-likelihood is an invariant the
 * tests rely on.
 */

#ifndef REASON_PC_LEARN_H
#define REASON_PC_LEARN_H

#include <cstdint>
#include <vector>

#include "pc/pc.h"

namespace reason {
namespace pc {

/** One EM run's trace. */
struct EmTrace
{
    /** Mean train log-likelihood after each iteration (incl. initial). */
    std::vector<double> logLikelihood;
    uint32_t iterations = 0;
};

/** EM options. */
struct EmOptions
{
    uint32_t maxIterations = 20;
    /** Stop when LL improves by less than this per example. */
    double tolerance = 1e-6;
    /** Laplace smoothing pseudo-count added to every expected count. */
    double smoothing = 0.1;
};

/** Mean log-likelihood of a dataset under the circuit. */
double meanLogLikelihood(const Circuit &circuit,
                         const std::vector<Assignment> &data);

/**
 * Run flow-based EM in place.  The E-step is accumulateDatasetFlows
 * with its auto shard count (util::resolveShardCount), a function of
 * the dataset size alone, so trained parameters and the trace depend
 * only on the model and data, never on the thread count.
 * @return the per-iteration trace (first entry is the initial LL).
 */
EmTrace emTrain(Circuit &circuit, const std::vector<Assignment> &data,
                const EmOptions &config = {});

} // namespace pc
} // namespace reason

#endif // REASON_PC_LEARN_H
