/**
 * @file
 * The four-step flat-graph-to-hardware compiler (REASON Sec. V-C).
 *
 * The compiler consumes the flat CSR lowering of the unified DAG
 * (core::FlatGraph) directly instead of walking the heap `Dag`; the
 * `Dag` overload is a thin regularize-and-lower shim kept for callers
 * that still build pointer graphs.  The steps:
 *
 *   Step 1  Block decomposition — greedy extraction of depth-bounded
 *           subtrees ("blocks") that issue as single tree instructions.
 *           Unary modifiers (Not, weight scaling) are folded into leaf
 *           affine transforms; weighted edges are pushed into fused
 *           subtrees where algebra allows (selective replication of
 *           cheap unary work).
 *   Step 2  PE and register-bank mapping — blocks are assigned to PEs by
 *           dependence level; each PE owns one output bank
 *           (one-bank-one-PE), external inputs are spread across the
 *           remaining banks conflict-aware.
 *   Step 3  Tree mapping — fused op subtrees are placed onto the physical
 *           node grid with pass-through routing for short paths.
 *   Step 4  Reordering — pipeline-aware list scheduling that spaces
 *           dependent blocks by the tree pipeline latency and interleaves
 *           independent work.
 */

#ifndef REASON_COMPILER_COMPILE_H
#define REASON_COMPILER_COMPILE_H

#include "compiler/program.h"
#include "core/dag.h"
#include "core/flat.h"

namespace reason {
namespace compiler {

/** Hardware template parameters the compiler targets. */
struct TargetConfig
{
    uint32_t treeDepth = 3;   ///< D: levels of compute nodes
    uint32_t numPes = 12;
    uint32_t numBanks = 64;   ///< B
    uint32_t regsPerBank = 32; ///< R
    /** Cycles from issue to result visibility (route + D levels + WB). */
    uint32_t pipelineLatency() const { return treeDepth + 3; }
};

/**
 * Compile a flat graph to a REASON program.  The graph must be in
 * two-input form (every fan-in <= 2 — regularize the source before
 * lowering); the emitted program's simulated execution yields exactly
 * the source Dag's root value (Dag::evaluateRoot) for any input
 * vector.
 */
Program compile(const core::FlatGraph &graph,
                const TargetConfig &target = {});

/**
 * Dag convenience overload: regularizes to two-input form if needed,
 * lowers to flat CSR (core::lowerDag), and delegates to the FlatGraph
 * compiler.  Emitted programs are identical to lowering first and
 * calling the flat overload directly.
 */
Program compile(const core::Dag &dag, const TargetConfig &target = {});

} // namespace compiler
} // namespace reason

#endif // REASON_COMPILER_COMPILE_H
