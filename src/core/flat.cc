#include "core/flat.h"

#include <algorithm>

#include "util/logging.h"

namespace reason {
namespace core {

const char *
flatOpName(FlatOp op)
{
    switch (op) {
      case FlatOp::Input: return "input";
      case FlatOp::Const: return "const";
      case FlatOp::Sum: return "sum";
      case FlatOp::WeightedSum: return "wsum";
      case FlatOp::Product: return "product";
      case FlatOp::Max: return "max";
      case FlatOp::Min: return "min";
      case FlatOp::Not: return "not";
    }
    return "?";
}

size_t
FlatGraph::memoryBytes() const
{
    return ops.size() * sizeof(uint8_t) +
           edgeOffset.size() * sizeof(uint32_t) +
           edgeTarget.size() * sizeof(uint32_t) +
           edgeWeight.size() * sizeof(double) +
           inputs.size() * sizeof(inputs[0]) +
           consts.size() * sizeof(consts[0]);
}

void
FlatGraph::validate() const
{
    const size_t n = numNodes();
    reasonAssert(root < n, "flat graph root out of range");
    reasonAssert(edgeOffset.size() == n + 1, "edge offset size mismatch");
    reasonAssert(edgeOffset.front() == 0 && edgeOffset.back() == numEdges(),
                 "edge offsets must span the edge array");
    reasonAssert(edgeWeight.size() == edgeTarget.size(),
                 "edge weights must align with edge targets");
    for (size_t i = 0; i < n; ++i) {
        reasonAssert(edgeOffset[i] <= edgeOffset[i + 1],
                     "edge offsets must be monotone");
        for (uint32_t e = edgeOffset[i]; e < edgeOffset[i + 1]; ++e)
            reasonAssert(edgeTarget[e] < i,
                         "operands must precede consumers");
    }
}

LevelSchedule
buildLevelSchedule(size_t num_nodes,
                   std::span<const uint32_t> edge_offset,
                   std::span<const uint32_t> edge_target,
                   std::span<const uint8_t> schedulable)
{
    std::vector<uint32_t> level(num_nodes, 0);
    uint32_t max_level = 0;
    for (size_t i = 0; i < num_nodes; ++i) {
        uint32_t lvl = 0;
        for (uint32_t e = edge_offset[i]; e < edge_offset[i + 1]; ++e)
            lvl = std::max(lvl, level[edge_target[e]] + 1);
        level[i] = lvl;
        max_level = std::max(max_level, lvl);
    }
    const auto scheduled = [&](size_t i) {
        return schedulable.empty() || schedulable[i] != 0;
    };
    // Counting sort by level keeps ascending node id within a level.
    LevelSchedule s;
    s.offset.assign(max_level + 2, 0);
    for (size_t i = 0; i < num_nodes; ++i)
        if (scheduled(i))
            ++s.offset[level[i] + 1];
    for (size_t l = 1; l < s.offset.size(); ++l)
        s.offset[l] += s.offset[l - 1];
    s.nodes.resize(s.offset.back());
    std::vector<uint32_t> cursor(s.offset.begin(), s.offset.end() - 1);
    for (size_t i = 0; i < num_nodes; ++i)
        if (scheduled(i))
            s.nodes[cursor[level[i]]++] = uint32_t(i);
    return s;
}

FlatGraph
lowerDag(const Dag &dag)
{
    dag.validate();
    const size_t n = dag.numNodes();
    FlatGraph g;
    g.ops.resize(n);
    g.edgeOffset.reserve(n + 1);
    g.edgeOffset.push_back(0);
    g.edgeTarget.reserve(dag.numEdges());
    g.edgeWeight.reserve(dag.numEdges());
    g.numInputs = dag.numInputs();
    g.root = dag.root();

    for (size_t i = 0; i < n; ++i) {
        const DagNode &node = dag.node(NodeId(i));
        FlatOp op;
        switch (node.op) {
          case DagOp::Input:
            op = FlatOp::Input;
            g.inputs.emplace_back(uint32_t(i), node.tag);
            break;
          case DagOp::Const:
            op = FlatOp::Const;
            g.consts.emplace_back(uint32_t(i), node.value);
            break;
          case DagOp::Sum:
            op = node.weights.empty() ? FlatOp::Sum : FlatOp::WeightedSum;
            break;
          case DagOp::Product: op = FlatOp::Product; break;
          case DagOp::Max: op = FlatOp::Max; break;
          case DagOp::Min: op = FlatOp::Min; break;
          case DagOp::Not: op = FlatOp::Not; break;
          default: panic("unknown DagOp in lowering");
        }
        g.ops[i] = uint8_t(op);
        for (size_t k = 0; k < node.inputs.size(); ++k) {
            g.edgeTarget.push_back(node.inputs[k]);
            g.edgeWeight.push_back(
                node.weights.empty() ? 1.0 : node.weights[k]);
        }
        g.edgeOffset.push_back(uint32_t(g.edgeTarget.size()));
    }

    g.validate();
    return g;
}

} // namespace core
} // namespace reason
