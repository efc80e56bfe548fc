#include "pc/flows.h"

#include <algorithm>
#include <cmath>

#include "pc/flat_pc.h"
#include "util/logging.h"
#include "util/numeric.h"

namespace reason {
namespace pc {

EdgeFlows
computeFlows(const Circuit &circuit, const Assignment &x)
{
    std::vector<double> val = circuit.evaluate(x);
    EdgeFlows ef;
    ef.nodeFlows.assign(circuit.numNodes(), 0.0);
    ef.flows.resize(circuit.numNodes());
    for (size_t i = 0; i < circuit.numNodes(); ++i)
        ef.flows[i].assign(circuit.node(i).children.size(), 0.0);

    NodeId root = circuit.root();
    if (val[root] == kLogZero)
        return ef; // zero-probability evidence carries no flow
    ef.nodeFlows[root] = 1.0;

    // Nodes are stored children-before-parents, so a reverse scan visits
    // parents before children.
    for (size_t idx = circuit.numNodes(); idx-- > 0;) {
        const PcNode &n = circuit.node(static_cast<NodeId>(idx));
        double fn = ef.nodeFlows[idx];
        if (fn == 0.0 || n.children.empty())
            continue;
        if (n.type == PcNodeType::Product) {
            for (size_t k = 0; k < n.children.size(); ++k) {
                ef.flows[idx][k] = fn;
                ef.nodeFlows[n.children[k]] += fn;
            }
        } else if (n.type == PcNodeType::Sum) {
            for (size_t k = 0; k < n.children.size(); ++k) {
                if (n.weights[k] <= 0.0)
                    continue;
                double child_val = val[n.children[k]];
                if (child_val == kLogZero)
                    continue;
                double frac = std::exp(std::log(n.weights[k]) +
                                       child_val - val[idx]);
                double flow = frac * fn;
                ef.flows[idx][k] = flow;
                ef.nodeFlows[n.children[k]] += flow;
            }
        }
    }
    return ef;
}

EdgeFlows
accumulateFlows(const Circuit &circuit,
                const std::vector<Assignment> &data)
{
    // Hot path: one cached flat lowering, then shard-parallel
    // allocation-free passes across samples (computeFlows stays as the
    // one-shot reference walker).
    std::shared_ptr<const FlatCircuit> flat = circuit.lowered();
    DatasetFlows acc = accumulateDatasetFlows(*flat, data);

    EdgeFlows total;
    total.nodeFlows = std::move(acc.nodeFlow);
    total.flows.resize(circuit.numNodes());
    for (size_t i = 0; i < circuit.numNodes(); ++i) {
        const uint32_t lo = flat->edgeOffset[i];
        const uint32_t hi = flat->edgeOffset[i + 1];
        total.flows[i].assign(acc.edgeFlow.begin() + lo,
                              acc.edgeFlow.begin() + hi);
    }
    return total;
}

namespace {

/**
 * Rebuild the circuit keeping only the selected sum edges, dropping nodes
 * that become unreachable from the root.
 */
PcPruneResult
rebuildWithMask(const Circuit &circuit,
                const std::vector<std::vector<bool>> &keep_edge,
                double ll_bound)
{
    PcPruneResult res;
    res.logLikelihoodBound = ll_bound;

    // Mark reachable nodes from the root through kept edges.
    std::vector<bool> reachable(circuit.numNodes(), false);
    std::vector<NodeId> stack{circuit.root()};
    reachable[circuit.root()] = true;
    while (!stack.empty()) {
        NodeId id = stack.back();
        stack.pop_back();
        const PcNode &n = circuit.node(id);
        for (size_t k = 0; k < n.children.size(); ++k) {
            if (!keep_edge[id][k])
                continue;
            NodeId c = n.children[k];
            if (!reachable[c]) {
                reachable[c] = true;
                stack.push_back(c);
            }
        }
    }

    Circuit out(circuit.numVars(), circuit.arity());
    std::vector<NodeId> remap(circuit.numNodes(), kInvalidNode);
    size_t edges_before = circuit.numEdges();
    for (NodeId id = 0; id < circuit.numNodes(); ++id) {
        if (!reachable[id]) {
            ++res.nodesRemoved;
            continue;
        }
        const PcNode &n = circuit.node(id);
        switch (n.type) {
          case PcNodeType::Leaf:
            remap[id] = out.addLeaf(n.var, n.dist);
            break;
          case PcNodeType::Product: {
            std::vector<NodeId> children;
            for (size_t k = 0; k < n.children.size(); ++k) {
                reasonAssert(keep_edge[id][k],
                             "product edges are never pruned");
                children.push_back(remap[n.children[k]]);
            }
            remap[id] = out.addProduct(std::move(children));
            break;
          }
          case PcNodeType::Sum: {
            std::vector<NodeId> children;
            std::vector<double> weights;
            for (size_t k = 0; k < n.children.size(); ++k) {
                if (!keep_edge[id][k])
                    continue;
                children.push_back(remap[n.children[k]]);
                weights.push_back(n.weights[k]);
            }
            reasonAssert(!children.empty(),
                         "sum node must keep at least one child");
            remap[id] = out.addSum(std::move(children),
                                   std::move(weights));
            break;
          }
        }
    }
    out.markRoot(remap[circuit.root()]);
    out.validate();
    res.edgesRemoved = edges_before - out.numEdges();
    res.edgeReduction =
        edges_before == 0
            ? 0.0
            : static_cast<double>(res.edgesRemoved) /
                  static_cast<double>(edges_before);
    res.pruned = std::move(out);
    return res;
}

} // namespace

PcPruneResult
pruneByFlow(const Circuit &circuit, const std::vector<Assignment> &data,
            double flow_threshold)
{
    reasonAssert(!data.empty(), "flow pruning needs data");
    EdgeFlows total = accumulateFlows(circuit, data);
    double n = static_cast<double>(data.size());

    std::vector<std::vector<bool>> keep(circuit.numNodes());
    double removed_mass = 0.0;
    for (NodeId id = 0; id < circuit.numNodes(); ++id) {
        const PcNode &node = circuit.node(id);
        keep[id].assign(node.children.size(), true);
        if (node.type != PcNodeType::Sum)
            continue;
        // Keep the strongest edge unconditionally.
        size_t best = 0;
        for (size_t k = 1; k < node.children.size(); ++k)
            if (total.flows[id][k] > total.flows[id][best])
                best = k;
        for (size_t k = 0; k < node.children.size(); ++k) {
            if (k == best)
                continue;
            double avg_flow = total.flows[id][k] / n;
            if (avg_flow < flow_threshold) {
                keep[id][k] = false;
                removed_mass += avg_flow;
            }
        }
    }
    return rebuildWithMask(circuit, keep, removed_mass);
}

PcPruneResult
pruneFraction(const Circuit &circuit, const std::vector<Assignment> &data,
              double fraction)
{
    reasonAssert(fraction >= 0.0 && fraction < 1.0,
                 "prune fraction must be in [0,1)");
    EdgeFlows total = accumulateFlows(circuit, data);
    double n = static_cast<double>(data.size());

    struct EdgeRef
    {
        NodeId node;
        size_t child;
        double flow;
    };
    std::vector<EdgeRef> sum_edges;
    for (NodeId id = 0; id < circuit.numNodes(); ++id) {
        const PcNode &node = circuit.node(id);
        if (node.type != PcNodeType::Sum)
            continue;
        for (size_t k = 0; k < node.children.size(); ++k)
            sum_edges.push_back({id, k, total.flows[id][k]});
    }
    std::sort(sum_edges.begin(), sum_edges.end(),
              [](const EdgeRef &a, const EdgeRef &b) {
                  return a.flow < b.flow;
              });
    size_t target =
        static_cast<size_t>(fraction *
                            static_cast<double>(sum_edges.size()));

    std::vector<std::vector<bool>> keep(circuit.numNodes());
    std::vector<size_t> kept_children(circuit.numNodes(), 0);
    for (NodeId id = 0; id < circuit.numNodes(); ++id) {
        keep[id].assign(circuit.node(id).children.size(), true);
        kept_children[id] = circuit.node(id).children.size();
    }
    double removed_mass = 0.0;
    size_t removed = 0;
    for (const EdgeRef &e : sum_edges) {
        if (removed >= target)
            break;
        if (kept_children[e.node] <= 1)
            continue; // never orphan a sum node
        keep[e.node][e.child] = false;
        --kept_children[e.node];
        removed_mass += e.flow / n;
        ++removed;
    }
    return rebuildWithMask(circuit, keep, removed_mass);
}

} // namespace pc
} // namespace reason
