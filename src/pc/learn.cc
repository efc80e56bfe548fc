#include "pc/learn.h"

#include <cmath>

#include "pc/flat_pc.h"
#include "pc/flows.h"
#include "util/logging.h"

namespace reason {
namespace pc {

double
meanLogLikelihood(const Circuit &circuit,
                  const std::vector<Assignment> &data)
{
    reasonAssert(!data.empty(), "need data");
    std::shared_ptr<const FlatCircuit> flat = circuit.lowered();
    CircuitEvaluator eval(*flat);
    std::vector<double> ll(data.size());
    eval.logLikelihoodBatch(data, ll);
    double acc = 0.0;
    for (double v : ll)
        acc += v;
    return acc / static_cast<double>(data.size());
}

EmTrace
emTrain(Circuit &circuit, const std::vector<Assignment> &data,
        const EmOptions &config)
{
    EmTrace trace;
    trace.logLikelihood.push_back(meanLogLikelihood(circuit, data));

    for (uint32_t it = 0; it < config.maxIterations; ++it) {
        // E-step: expected edge usage = accumulated flows; expected leaf
        // value usage = leaf flow attributed to the observed value,
        // accumulated shard-parallel across samples.  The M-step below
        // drops the circuit's memoized lowering, so the
        // meanLogLikelihood call after it lowers once (O(edges),
        // amortized over all samples) and the next E-step reuses that
        // lowering; `flat` keeps this iteration's lowering alive.
        std::shared_ptr<const FlatCircuit> flat = circuit.lowered();
        DatasetFlows acc =
            accumulateDatasetFlows(*flat, data);

        // M-step: re-normalize sum weights and leaf distributions.
        const std::vector<double> &edge_flow = acc.edgeFlow;
        const std::vector<double> &leaf_flow = acc.leafValueFlow;
        std::vector<double> params;
        for (NodeId id = 0; id < circuit.numNodes(); ++id) {
            const PcNode &n = circuit.node(id);
            if (n.type == PcNodeType::Sum) {
                const uint32_t lo = flat->edgeOffset[id];
                double denom = 0.0;
                for (size_t k = 0; k < n.children.size(); ++k)
                    denom += edge_flow[lo + k] + config.smoothing;
                params.resize(n.children.size());
                for (size_t k = 0; k < n.children.size(); ++k)
                    params[k] = (edge_flow[lo + k] + config.smoothing) / denom;
                circuit.setSumWeights(id, params);
            } else if (n.type == PcNodeType::Leaf) {
                const size_t row =
                    size_t(flat->leafSlot[id]) * circuit.arity();
                double denom = 0.0;
                for (uint32_t v = 0; v < circuit.arity(); ++v)
                    denom += leaf_flow[row + v] + config.smoothing;
                if (denom <= 0.0)
                    continue;
                params.resize(circuit.arity());
                for (uint32_t v = 0; v < circuit.arity(); ++v)
                    params[v] = (leaf_flow[row + v] + config.smoothing) / denom;
                circuit.setLeafDist(id, params);
            }
        }

        double ll = meanLogLikelihood(circuit, data);
        trace.logLikelihood.push_back(ll);
        ++trace.iterations;
        double prev = trace.logLikelihood[trace.logLikelihood.size() - 2];
        if (ll - prev < config.tolerance)
            break;
    }
    return trace;
}

} // namespace pc
} // namespace reason
