/**
 * @file
 * Flat CSR lowering of the unified reasoning DAG (REASON Sec. IV-A).
 *
 * `Dag` stores one fan-in vector per node — convenient to build, but
 * pointer-chasing for anything that streams the graph.  The paper's
 * observation is that all three substrates stream the *same* operation
 * sequence over a fixed topology, which is exactly what hardware wants:
 * contiguous opcode/edge arrays.  `FlatGraph` lowers a `Dag` once into
 * CSR-style arrays (opcodes, edge offsets/targets, packed edge weights,
 * input and constant lists); it is the input of compiler::compile.
 *
 * `Dag::evaluate` is the linear-domain reference walker.
 * `buildLevelSchedule` computes the wavefront schedule of
 * pc::FlatCircuit.
 */

#ifndef REASON_CORE_FLAT_H
#define REASON_CORE_FLAT_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/dag.h"

namespace reason {
namespace core {

/**
 * Flat opcode.  Mirrors DagOp, but splits Sum into plain/weighted forms
 * so the hot loop dispatches without testing weight presence per node.
 */
enum class FlatOp : uint8_t
{
    Input,
    Const,
    Sum,         ///< unweighted addition over fan-in
    WeightedSum, ///< weighted addition; weights packed in edgeWeight
    Product,
    Max,
    Min,
    Not
};

/** Printable opcode name. */
const char *flatOpName(FlatOp op);

/**
 * CSR lowering of a Dag: structure-of-arrays, contiguous, immutable.
 *
 * Node i's operands are edgeTarget[edgeOffset[i] .. edgeOffset[i+1]) with
 * per-edge weights in the same index range of edgeWeight (1.0 for
 * non-weighted ops, so the arrays stay aligned).  Input and Const leaves
 * are also listed separately, with their tags and values.
 */
struct FlatGraph
{
    /** Per-node opcode (FlatOp), indexed by original NodeId. */
    std::vector<uint8_t> ops;
    /** CSR fan-in offsets; size numNodes()+1. */
    std::vector<uint32_t> edgeOffset;
    /** Operand node ids, child-order preserved from the Dag. */
    std::vector<uint32_t> edgeTarget;
    /** Per-edge weight, aligned with edgeTarget (1.0 when unweighted). */
    std::vector<double> edgeWeight;
    /** (node, input tag) for every Input leaf. */
    std::vector<std::pair<uint32_t, uint32_t>> inputs;
    /** (node, value) for every Const leaf. */
    std::vector<std::pair<uint32_t, double>> consts;
    /** External input slot count (max tag + 1). */
    uint32_t numInputs = 0;
    /** Root node id. */
    uint32_t root = kInvalidNode;

    size_t numNodes() const { return ops.size(); }
    size_t numEdges() const { return edgeTarget.size(); }
    /** Actual storage footprint of the flat arrays in bytes. */
    size_t memoryBytes() const;

    /** Structural invariants (offsets, targets); panics. */
    void validate() const;
};

/** Lower a Dag into flat CSR form.  O(nodes + edges). */
FlatGraph lowerDag(const Dag &dag);

/** A wavefront schedule: nodes grouped by level via offset slices. */
struct LevelSchedule
{
    /** Offsets into nodes; size numLevels+1. */
    std::vector<uint32_t> offset;
    /** Scheduled nodes, ascending id within a level. */
    std::vector<uint32_t> nodes;
};

/**
 * Compute the level (wavefront) schedule of a CSR DAG: a node's level
 * is one past its deepest operand (operand-free nodes are level 0).
 * `schedulable` restricts which nodes appear in the schedule (empty =
 * all); levels are always computed over every node, so filtered-out
 * leaves still anchor level 0.  All nodes of level L depend only on
 * levels < L, so each level is a data-parallel wavefront.  Used by
 * pc::FlatCircuit.  O(nodes + edges).
 */
LevelSchedule buildLevelSchedule(size_t num_nodes,
                                 std::span<const uint32_t> edge_offset,
                                 std::span<const uint32_t> edge_target,
                                 std::span<const uint8_t> schedulable = {});

} // namespace core
} // namespace reason

#endif // REASON_CORE_FLAT_H
