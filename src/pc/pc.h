/**
 * @file
 * Probabilistic Circuits (PCs): tractable probabilistic models over
 * discrete variables, represented as DAGs of sum, product, and leaf nodes
 * (REASON Sec. II-C, Eq. 1).
 *
 * Evaluation is performed in log space for numerical robustness.  The
 * circuit supports complete-evidence likelihood, marginal queries with
 * unobserved variables, MAP-style max-product queries, and the top-down
 * circuit flows used by adaptive pruning (Sec. IV-B).
 */

#ifndef REASON_PC_PC_H
#define REASON_PC_PC_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace reason {

class Rng;

namespace pc {

class FlatCircuit;

/** Node identifier inside a circuit. */
using NodeId = uint32_t;
inline constexpr NodeId kInvalidNode = ~0u;

/** Kind of a circuit node. */
enum class PcNodeType : uint8_t { Leaf, Sum, Product };

/**
 * One circuit node.  Leaves are indicator-weighted categorical
 * distributions over a single variable; interior nodes combine children.
 */
struct PcNode
{
    PcNodeType type = PcNodeType::Leaf;
    /** Leaf only: variable index. */
    uint32_t var = 0;
    /** Leaf only: P(var = v) for each value v (normalized). */
    std::vector<double> dist;
    /** Interior only: children node ids. */
    std::vector<NodeId> children;
    /** Sum only: non-negative mixture weights, aligned with children. */
    std::vector<double> weights;
};

/** Complete or partial assignment: value per variable, or kMissing. */
inline constexpr uint32_t kMissing = ~0u;
using Assignment = std::vector<uint32_t>;

/**
 * A probabilistic circuit over `numVars` categorical variables with
 * `arity` values each.  Nodes are stored in topological order (children
 * before parents); the last node added with markRoot (or the final node)
 * is the root.
 *
 * The circuit memoizes its flat lowering (lowered()).  Every mutator
 * drops the memo, and nodes are only reachable read-only, so a memo is
 * never stale.  A copy shares the source's memo until either side
 * mutates; assignment takes the source's memo; a moved-from circuit
 * has none.
 */
class Circuit
{
  public:
    Circuit(uint32_t num_vars, uint32_t arity);

    Circuit(const Circuit &other);
    Circuit(Circuit &&other) noexcept;
    Circuit &operator=(const Circuit &other);
    Circuit &operator=(Circuit &&other) noexcept;

    uint32_t numVars() const { return numVars_; }
    uint32_t arity() const { return arity_; }
    size_t numNodes() const { return nodes_.size(); }
    size_t numEdges() const;
    NodeId root() const { return root_; }

    const PcNode &node(NodeId id) const { return nodes_.at(id); }

    /** Add a categorical leaf over `var`; dist is normalized in place. */
    NodeId addLeaf(uint32_t var, std::vector<double> dist);

    /** Add a product node over children (must already exist). */
    NodeId addProduct(std::vector<NodeId> children);

    /** Add a sum node; weights normalized in place. */
    NodeId addSum(std::vector<NodeId> children,
                  std::vector<double> weights);

    /** Declare the root node. */
    void markRoot(NodeId id);

    /**
     * Overwrite a sum node's weights in place (size must match its
     * children).  Not renormalized: callers such as EM's M-step pass
     * already-normalized weights and must keep them bit-exact.
     */
    void setSumWeights(NodeId id, std::span<const double> weights);

    /**
     * Overwrite a leaf's distribution in place (size must equal the
     * arity).  Not renormalized, like setSumWeights.
     */
    void setLeafDist(NodeId id, std::span<const double> dist);

    /**
     * Flat lowering of the circuit (pc/flat_pc.h), built on the first
     * call and shared by every later call until a mutator runs.
     * Thread-safe: concurrent callers on one const circuit lower once
     * and get one pointer.  A returned lowering stays valid and
     * unchanged after the circuit mutates or dies.
     */
    std::shared_ptr<const FlatCircuit> lowered() const;

    /**
     * Log-likelihood of an assignment.  Variables set to kMissing are
     * marginalized out (their leaves evaluate to 1).
     */
    double logLikelihood(const Assignment &x) const;

    /** Per-node log values for an assignment (bottom-up pass). */
    std::vector<double> evaluate(const Assignment &x) const;

    /**
     * Max-product upward pass + downward decoding: most likely completion
     * of a partial assignment (approximate MAP for non-deterministic
     * circuits, exact for selective ones).
     */
    Assignment mapCompletion(const Assignment &x) const;

    /**
     * Brute-force log partition of the circuit: log sum over all complete
     * assignments of exp(logLikelihood).  Testing only; requires
     * arity^numVars to be small.
     */
    double bruteForceLogZ() const;

    /**
     * Structural checks: children precede parents, sum weights align with
     * children and are normalized, leaves have valid distributions.
     * panic()s on violation.
     */
    void validate() const;

    /**
     * True when every sum node's children cover the same variable scope
     * (smoothness) and every product node's children have disjoint scopes
     * (decomposability); such circuits admit exact marginals.
     */
    bool isSmoothAndDecomposable() const;

    /** Variable scope of each node (bottom-up union). */
    std::vector<std::vector<uint32_t>> scopes() const;

  private:
    uint32_t numVars_;
    uint32_t arity_;
    std::vector<PcNode> nodes_;
    NodeId root_ = kInvalidNode;
    /** Guards lowered_; held while a lowering is built. */
    mutable std::mutex loweredMutex_;
    mutable std::shared_ptr<const FlatCircuit> lowered_;
};

/**
 * Random smooth & decomposable circuit over `num_vars` variables
 * (RAT-SPN-like region construction): the variable set is recursively
 * split into balanced partitions; each region gets `num_sums` mixture
 * nodes over `num_inputs` random product combinations.
 */
Circuit randomCircuit(Rng &rng, uint32_t num_vars, uint32_t arity,
                      uint32_t num_sums = 2, uint32_t num_inputs = 4);

/** Draw i.i.d. samples from the circuit distribution. */
std::vector<Assignment> sampleDataset(Rng &rng, const Circuit &circuit,
                                      size_t count);

} // namespace pc
} // namespace reason

#endif // REASON_PC_PC_H
