/**
 * @file
 * Knowledge compilation: CNF -> decision-DNNF, model counting, and
 * weighted model counting (WMC).
 *
 * This is the algorithmic bridge between REASON's logical and
 * probabilistic kernels: R2-Guard-style workloads (Table I) compile
 * first-order safety rules into probabilistic circuits and then reason
 * over them with PC marginals.  The compiler here is an exhaustive DPLL
 * with unit propagation, connected-component decomposition, and formula
 * caching — the textbook top-down d-DNNF construction (Darwiche's
 * c2d/Dsharp family) — producing a graph whose And nodes have
 * variable-disjoint children (decomposability) and whose Or nodes are
 * decisions on a single variable (determinism).  Those two properties
 * make model counting and WMC linear in graph size, and allow a direct
 * translation into a smooth, decomposable pc::Circuit
 * (pc/from_logic.h).
 */

#ifndef REASON_LOGIC_KNOWLEDGE_H
#define REASON_LOGIC_KNOWLEDGE_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "logic/cnf.h"

namespace reason {
namespace logic {

/** Kind of a d-DNNF node. */
enum class NnfType : uint8_t
{
    True,  ///< neutral conjunct / satisfied residual
    False, ///< contradiction
    Lit,   ///< a single literal
    And,   ///< decomposable conjunction (children have disjoint vars)
    Or     ///< deterministic disjunction: decision on `decisionVar`
};

const char *nnfTypeName(NnfType type);

/** Node identifier inside a DnnfGraph. */
using NnfId = uint32_t;
inline constexpr NnfId kInvalidNnf = ~0u;

/** One d-DNNF node. */
struct NnfNode
{
    NnfType type = NnfType::True;
    /** Lit only: the literal. */
    Lit lit;
    /** Or only: the decision variable distinguishing the two branches. */
    uint32_t decisionVar = 0;
    /** And/Or children (Or always has exactly two). */
    std::vector<NnfId> children;
};

/** Per-literal weights for weighted model counting. */
struct LitWeights
{
    /** Weight of var=true, indexed by variable. */
    std::vector<double> pos;
    /** Weight of var=false, indexed by variable. */
    std::vector<double> neg;

    /** Uniform weights (0.5/0.5): wmc = modelCount / 2^numVars. */
    static LitWeights uniform(uint32_t num_vars);

    /** Indicator weights for one complete assignment (1 on the chosen
     * polarity, 0 on the other): wmc = 1 iff the assignment is a model. */
    static LitWeights indicator(const std::vector<bool> &assignment);

    /** Random positive weights in (0.1, 1); pos+neg normalized to 1. */
    static LitWeights random(Rng &rng, uint32_t num_vars);
};

/** Compilation effort counters. */
struct DnnfStats
{
    uint64_t decisions = 0;
    uint64_t cacheHits = 0;
    uint64_t cacheEntries = 0;
    uint64_t componentSplits = 0;
    uint64_t unitPropagations = 0;
};

/**
 * A compiled decision-DNNF over the variables of the source formula.
 * Nodes are stored with children preceding parents.
 */
class DnnfGraph
{
  public:
    DnnfGraph() = default;

    uint32_t numVars() const { return numVars_; }
    size_t numNodes() const { return nodes_.size(); }
    size_t numEdges() const;
    NnfId root() const { return root_; }
    const NnfNode &node(NnfId id) const { return nodes_.at(id); }

    /** Compilation statistics of the producing run. */
    const DnnfStats &stats() const { return stats_; }

    /**
     * Exact model count of the source formula (free variables — those
     * mentioned nowhere — contribute a factor of 2 each).  Returned as a
     * double; exact for counts below 2^53.
     */
    double modelCount() const;

    /**
     * Weighted model count: sum over models of the product of literal
     * weights.  Smoothing is applied on the fly — variables missing from
     * a branch contribute (pos + neg).
     */
    double wmc(const LitWeights &weights) const;

    /**
     * Per-node weighted counts over each node's own scope (the wmc()
     * intermediate).  Or-node values include the smoothing factors for
     * scope gaps to their children; the root value excludes factors for
     * variables outside the root scope.  Consumed by pc/from_logic.
     */
    std::vector<double> weightedValues(const LitWeights &weights) const;

    /**
     * Evaluate the NNF under a complete assignment; by determinism +
     * decomposability this is true iff the assignment satisfies the
     * source formula.
     */
    bool isModel(const std::vector<bool> &assignment) const;

    /** Variables appearing at or below each node (sorted, deduped). */
    std::vector<std::vector<uint32_t>> scopes() const;

    /** Structural invariants (child ordering, Or arity); panic()s. */
    void validate() const;

    /** Human-readable dump (small graphs only). */
    std::string toString() const;

    /**
     * Assemble a graph from explicit nodes (children must precede
     * parents; validated).  Used by the c2d parser (nnf_io.h); stats
     * are left zeroed.
     */
    static DnnfGraph fromNodes(std::vector<NnfNode> nodes, NnfId root,
                               uint32_t num_vars);

  private:
    friend class DnnfCompiler;

    std::vector<NnfNode> nodes_;
    NnfId root_ = kInvalidNnf;
    uint32_t numVars_ = 0;
    DnnfStats stats_;
};

/**
 * Compile a CNF formula to decision-DNNF.
 *
 * Exhaustive DPLL: unit propagation at every node (always on the first
 * unit clause in residual order), connected-component decomposition
 * (And nodes, components in order of first appearance), branching on
 * the most-occurring variable, lowest index on ties (Or decision nodes),
 * with a cache keyed on the canonical residual formula (its clauses
 * sorted; equal keys mean equal clause multisets).  A formula with an
 * empty clause compiles to the False graph.  Exponential in the worst
 * case — intended for the rule-knowledge-base scale of the guardrail
 * workloads (tens of variables), not industrial SAT.
 *
 * Representation: a residual formula is a slice of one flat literal
 * stack plus a clause-offset stack, rewritten in place by unit
 * propagation; branches and components push their residuals above it
 * and pop them on return.  Union-find and occurrence counts run over
 * variable-indexed arrays, and the cache is an open-addressed table
 * over keys held in one arena, so the recursion does not allocate per
 * clause or per call.  The representation affects speed only: the
 * graph (node for node, in emission order) and its DnnfStats are pinned
 * for a fixed formula set by Compiler.GraphIdenticalToSeedCompiler in
 * tests/test_knowledge.cc.
 */
DnnfGraph compileToDnnf(const CnfFormula &formula);

/** One-shot exact model count via compilation. */
double countModels(const CnfFormula &formula);

/** One-shot weighted model count via compilation. */
double weightedModelCount(const CnfFormula &formula,
                          const LitWeights &weights);

/**
 * Marginal probability P(var = true | formula) under the product
 * distribution induced by `weights`, conditioned on the formula holding:
 * wmc(formula ∧ var) / wmc(formula).  Returns -1 when the formula is
 * unsatisfiable (wmc == 0).
 */
double conditionalMarginal(const CnfFormula &formula,
                           const LitWeights &weights, uint32_t var);

} // namespace logic
} // namespace reason

#endif // REASON_LOGIC_KNOWLEDGE_H
