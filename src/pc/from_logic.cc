#include "pc/from_logic.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <iterator>
#include <span>
#include <vector>

#include "util/logging.h"
#include "util/numeric.h"

namespace reason {
namespace pc {

using logic::DnnfGraph;
using logic::LitWeights;
using logic::NnfId;
using logic::NnfNode;
using logic::NnfType;

namespace {

/** Sentinel PC id for True-valued NNF nodes (empty scope). */
constexpr NodeId kUnitPc = kInvalidNode;

/** Vars in `parent` missing from `child` (both sorted). */
std::vector<uint32_t>
scopeGap(const std::vector<uint32_t> &parent,
         const std::vector<uint32_t> &child)
{
    std::vector<uint32_t> gap;
    size_t ci = 0;
    for (uint32_t v : parent) {
        while (ci < child.size() && child[ci] < v)
            ++ci;
        if (ci < child.size() && child[ci] == v)
            continue;
        gap.push_back(v);
    }
    return gap;
}

} // namespace

Circuit
fromDnnf(const DnnfGraph &graph, const LitWeights &weights)
{
    reasonAssert(graph.numVars() > 0, "circuit needs at least one variable");
    auto scope = graph.scopes();
    auto value = graph.weightedValues(weights);
    if (value[graph.root()] <= 0.0)
        fatal("fromDnnf: formula is unsatisfiable under the weights "
              "(WMC = 0); the conditioned distribution does not exist");

    Circuit circuit(graph.numVars(), 2);

    // Marginal leaf P(v) ∝ (neg, pos), created on demand per variable.
    std::vector<NodeId> marginal(graph.numVars(), kInvalidNode);
    auto marginalLeaf = [&](uint32_t var) {
        if (marginal[var] == kInvalidNode)
            marginal[var] = circuit.addLeaf(
                var, {weights.neg[var], weights.pos[var]});
        return marginal[var];
    };
    // Product of `base` (optional) with marginal leaves over `gap`.
    auto padded = [&](NodeId base, const std::vector<uint32_t> &gap) {
        std::vector<NodeId> parts;
        if (base != kUnitPc)
            parts.push_back(base);
        for (uint32_t v : gap)
            parts.push_back(marginalLeaf(v));
        reasonAssert(!parts.empty(), "padding an empty scope");
        if (parts.size() == 1)
            return parts[0];
        return circuit.addProduct(std::move(parts));
    };

    // Only NNF nodes reachable from the root become circuit nodes.
    std::vector<bool> reachable(graph.numNodes(), false);
    reachable[graph.root()] = true;
    for (size_t i = graph.numNodes(); i-- > 0;) {
        if (!reachable[i])
            continue;
        for (NnfId c : graph.node(NnfId(i)).children)
            reachable[c] = true;
    }

    std::vector<NodeId> pcId(graph.numNodes(), kInvalidNode);
    for (size_t i = 0; i < graph.numNodes(); ++i) {
        if (!reachable[i])
            continue;
        const NnfNode &node = graph.node(NnfId(i));
        switch (node.type) {
          case NnfType::True:
            pcId[i] = kUnitPc;
            break;
          case NnfType::False:
            // The compiler folds False out of reachable positions except
            // a root-level contradiction, which the WMC guard rejected.
            panic("False node reachable in satisfiable d-DNNF");
            break;
          case NnfType::Lit: {
            uint32_t var = node.lit.var();
            std::vector<double> dist(2, 0.0);
            dist[node.lit.negated() ? 0 : 1] = 1.0;
            pcId[i] = circuit.addLeaf(var, std::move(dist));
            break;
          }
          case NnfType::And: {
            std::vector<NodeId> parts;
            for (NnfId c : node.children)
                if (pcId[c] != kUnitPc)
                    parts.push_back(pcId[c]);
            if (parts.empty())
                pcId[i] = kUnitPc;
            else if (parts.size() == 1)
                pcId[i] = parts[0];
            else
                pcId[i] = circuit.addProduct(std::move(parts));
            break;
          }
          case NnfType::Or: {
            std::vector<NodeId> children;
            std::vector<double> mix;
            for (NnfId c : node.children) {
                auto gap = scopeGap(scope[i], scope[c]);
                double w = value[c];
                for (uint32_t v : gap)
                    w *= weights.pos[v] + weights.neg[v];
                if (w <= 0.0)
                    continue; // dead branch under these weights
                children.push_back(padded(pcId[c], gap));
                mix.push_back(w);
            }
            reasonAssert(!children.empty(), "Or with no live branch");
            if (children.size() == 1)
                pcId[i] = children[0];
            else
                pcId[i] = circuit.addSum(std::move(children),
                                         std::move(mix));
            break;
          }
        }
    }

    // Pad the root out to the full variable set.
    std::vector<uint32_t> all_gap;
    {
        const auto &rs = scope[graph.root()];
        size_t si = 0;
        for (uint32_t v = 0; v < graph.numVars(); ++v) {
            while (si < rs.size() && rs[si] < v)
                ++si;
            if (si < rs.size() && rs[si] == v)
                continue;
            all_gap.push_back(v);
        }
    }
    NodeId root = padded(pcId[graph.root()], all_gap);
    circuit.markRoot(root);
    circuit.validate();
    return circuit;
}

Circuit
compileCnf(const logic::CnfFormula &formula)
{
    return compileCnf(formula, LitWeights::uniform(formula.numVars()));
}

Circuit
compileCnf(const logic::CnfFormula &formula, const LitWeights &weights)
{
    return fromDnnf(logic::compileToDnnf(formula), weights);
}

// ---------------------------------------------------------------------------
// Direct flat (WMC) lowering
// ---------------------------------------------------------------------------

namespace {

/** Flat id sentinel for True-valued NNF nodes (empty scope, weight 1). */
constexpr uint32_t kUnitFlat = kInvalidNode;

/**
 * Incremental d-DNNF -> flat WMC circuit builder, shared by the
 * in-memory route (flatFromDnnf) and the streaming `.nnf` loader so
 * both emit byte-identical arrays for the same node sequence.
 *
 * Nodes are fed in file/topological order (children first); each call
 * appends the flat nodes that node needs — indicator leaves, literal
 * weight sums, and smoothing marginals are hash-consed per variable —
 * keeping the emitted ids a pure function of the input sequence.
 * Scopes are tracked per input node, in one arena, to compute the
 * smoothing gaps of decision branches and of the root.
 */
class WmcFlatBuilder
{
  public:
    WmcFlatBuilder(uint32_t num_vars, const LitWeights &weights)
        : weights_(weights)
    {
        fc_.numVars = num_vars;
        fc_.arity = 2;
        fc_.edgeOffset.push_back(0);
        indicator_.assign(size_t(num_vars) * 2, kInvalidNode);
        litNode_.assign(size_t(num_vars) * 2, kInvalidNode);
        marginal_.assign(num_vars, kInvalidNode);
    }

    /** Input nodes consumed so far (the next node's sequence id). */
    size_t numNodes() const { return flatId_.size(); }
    /** Description of the rejected node after addNode() returns false. */
    const std::string &error() const { return error_; }

    /**
     * Consume one d-DNNF node; children are sequence ids of earlier
     * addNode() calls (the caller guarantees the range).  Returns false
     * — without crashing — when an And's children overlap (streamed
     * files are not pre-validated).
     */
    bool
    addNode(NnfType type, logic::Lit lit, uint32_t decision_var,
            std::span<const NnfId> children)
    {
        (void)decision_var; // determinism is the producer's contract
        const size_t begin = scopeVars_.size();
        uint32_t id = kUnitFlat;
        switch (type) {
          case NnfType::True:
            break;
          case NnfType::False:
            id = falseNode();
            break;
          case NnfType::Lit:
            scopeVars_.push_back(lit.var());
            id = litNodeFor(lit);
            break;
          case NnfType::And: {
            const size_t total = mergeScopes(children);
            if (scopeVars_.size() - begin != total) {
                scopeVars_.resize(begin);
                error_ =
                    "And children must have pairwise disjoint scopes";
                return false;
            }
            parts_.clear();
            for (NnfId c : children)
                if (flatId_[c] != kUnitFlat)
                    parts_.push_back(flatId_[c]);
            if (parts_.empty())
                id = kUnitFlat;
            else if (parts_.size() == 1)
                id = parts_[0];
            else
                id = addProduct(parts_);
            break;
          }
          case NnfType::Or: {
            mergeScopes(children);
            // Each branch is padded out to the decision's scope, so by
            // determinism the branch counts add: unit edge weights.
            branch_.clear();
            for (NnfId c : children) {
                fillGap(begin, c);
                branch_.push_back(padded(flatId_[c]));
            }
            zeros_.assign(branch_.size(), 0.0);
            id = addSum(branch_, zeros_);
            break;
          }
        }
        flatId_.push_back(id);
        scopeEnd_.push_back(scopeVars_.size());
        return true;
    }

    /** Pad the last node (the root) to the full variable set, fix the
     *  root, and derive the schedules.  Call exactly once. */
    FlatCircuit
    finish()
    {
        reasonAssert(!flatId_.empty(), "flat build with no nodes");
        const std::span<const uint32_t> rs = scope(flatId_.size() - 1);
        gap_.clear();
        size_t si = 0;
        for (uint32_t v = 0; v < fc_.numVars; ++v) {
            while (si < rs.size() && rs[si] < v)
                ++si;
            if (si < rs.size() && rs[si] == v)
                continue;
            gap_.push_back(v);
        }
        fc_.root = padded(flatId_.back());
        fc_.finalizeTopology();
        return std::move(fc_);
    }

  private:
    /** Scope of input node i: sorted variables at or below it. */
    std::span<const uint32_t>
    scope(size_t i) const
    {
        const size_t begin = i == 0 ? 0 : scopeEnd_[i - 1];
        return {scopeVars_.data() + begin, scopeEnd_[i] - begin};
    }

    /**
     * Append the sorted union of the children's scopes to scopeVars_ as
     * the new node's scope; @return the children's total scope size
     * (equal to the union's iff the scopes are disjoint).
     */
    size_t
    mergeScopes(std::span<const NnfId> children)
    {
        size_t total = 0;
        merged_.clear();
        for (NnfId c : children) {
            const std::span<const uint32_t> cs = scope(c);
            total += cs.size();
            mergeTmp_.clear();
            std::set_union(merged_.begin(), merged_.end(), cs.begin(),
                           cs.end(), std::back_inserter(mergeTmp_));
            merged_.swap(mergeTmp_);
        }
        scopeVars_.insert(scopeVars_.end(), merged_.begin(), merged_.end());
        return total;
    }

    /** gap_ = vars of the scope being built (from scopeVars_[begin])
     *  missing from input node c's scope (both sorted). */
    void
    fillGap(size_t begin, NnfId c)
    {
        const std::span<const uint32_t> child = scope(c);
        gap_.clear();
        size_t ci = 0;
        for (size_t i = begin; i < scopeVars_.size(); ++i) {
            const uint32_t v = scopeVars_[i];
            while (ci < child.size() && child[ci] < v)
                ++ci;
            if (ci < child.size() && child[ci] == v)
                continue;
            gap_.push_back(v);
        }
    }

    static double
    logOrZero(double w)
    {
        return w > 0.0 ? std::log(w) : kLogZero;
    }

    uint32_t
    addLeaf(uint32_t var, uint32_t value)
    {
        const uint32_t id = uint32_t(fc_.types.size());
        fc_.types.push_back(FlatCircuit::kLeaf);
        fc_.leafSlot.push_back(uint32_t(fc_.leafVar.size()));
        fc_.leafVar.push_back(var);
        fc_.leafLogDist.push_back(value == 0 ? 0.0 : kLogZero);
        fc_.leafLogDist.push_back(value == 1 ? 0.0 : kLogZero);
        fc_.edgeOffset.push_back(uint32_t(fc_.edgeTarget.size()));
        return id;
    }

    uint32_t
    addSum(std::span<const uint32_t> children,
           std::span<const double> log_weights)
    {
        const uint32_t id = uint32_t(fc_.types.size());
        fc_.types.push_back(FlatCircuit::kSum);
        fc_.leafSlot.push_back(kInvalidNode);
        for (size_t k = 0; k < children.size(); ++k) {
            fc_.edgeTarget.push_back(children[k]);
            fc_.edgeLogWeight.push_back(log_weights[k]);
        }
        fc_.edgeOffset.push_back(uint32_t(fc_.edgeTarget.size()));
        return id;
    }

    uint32_t
    addProduct(std::span<const uint32_t> children)
    {
        const uint32_t id = uint32_t(fc_.types.size());
        fc_.types.push_back(FlatCircuit::kProduct);
        fc_.leafSlot.push_back(kInvalidNode);
        for (uint32_t c : children) {
            fc_.edgeTarget.push_back(c);
            fc_.edgeLogWeight.push_back(kLogZero);
        }
        fc_.edgeOffset.push_back(uint32_t(fc_.edgeTarget.size()));
        return id;
    }

    /** 0/1 indicator leaf for var == value, hash-consed. */
    uint32_t
    indicatorLeaf(uint32_t var, uint32_t value)
    {
        uint32_t &slot = indicator_[size_t(var) * 2 + value];
        if (slot == kInvalidNode)
            slot = addLeaf(var, value);
        return slot;
    }

    /** w(lit) * indicator(lit): the literal's weight rides on the sum
     *  edge because leaf distributions must stay 0/1 indicators (a
     *  kMissing variable evaluates the leaf to log 1). */
    uint32_t
    litNodeFor(logic::Lit lit)
    {
        const uint32_t value = lit.negated() ? 0u : 1u;
        uint32_t &slot = litNode_[size_t(lit.var()) * 2 + value];
        if (slot == kInvalidNode) {
            const uint32_t leaf = indicatorLeaf(lit.var(), value);
            const double w = lit.negated() ? weights_.neg[lit.var()]
                                           : weights_.pos[lit.var()];
            const uint32_t child[1] = {leaf};
            const double logw[1] = {logOrZero(w)};
            slot = addSum(child, logw);
        }
        return slot;
    }

    /** Smoothing marginal w_neg*[v=0] + w_pos*[v=1], hash-consed. */
    uint32_t
    marginalNode(uint32_t var)
    {
        uint32_t &slot = marginal_[var];
        if (slot == kInvalidNode) {
            const uint32_t child[2] = {indicatorLeaf(var, 0),
                                       indicatorLeaf(var, 1)};
            const double logw[2] = {logOrZero(weights_.neg[var]),
                                    logOrZero(weights_.pos[var])};
            slot = addSum(child, logw);
        }
        return slot;
    }

    /** Empty sum: evaluates to -inf (the constant-false circuit). */
    uint32_t
    falseNode()
    {
        if (false_ == kInvalidNode)
            false_ = addSum({}, {});
        return false_;
    }

    /** Empty product: evaluates to log 1 (a materialized unit). */
    uint32_t
    unitNode()
    {
        if (unit_ == kInvalidNode)
            unit_ = addProduct({});
        return unit_;
    }

    /** Product of `base` (kUnitFlat allowed) with the marginals over
     *  gap_; collapses to the single part when there is only one. */
    uint32_t
    padded(uint32_t base)
    {
        parts_.clear();
        if (base != kUnitFlat)
            parts_.push_back(base);
        for (uint32_t v : gap_)
            parts_.push_back(marginalNode(v));
        if (parts_.empty())
            return unitNode();
        if (parts_.size() == 1)
            return parts_[0];
        return addProduct(parts_);
    }

    const LitWeights &weights_;
    FlatCircuit fc_;
    /** Per input node: flat id (kUnitFlat for True-valued) and the end
     *  of its scope in the scopeVars_ arena. */
    std::vector<uint32_t> flatId_;
    std::vector<size_t> scopeEnd_;
    std::vector<uint32_t> scopeVars_;
    /** Scratch reused across nodes: product parts, Or branches and
     *  their (zero) log-weights, a smoothing gap, and scope unions. */
    std::vector<uint32_t> parts_;
    std::vector<uint32_t> branch_;
    std::vector<double> zeros_;
    std::vector<uint32_t> gap_;
    std::vector<uint32_t> merged_;
    std::vector<uint32_t> mergeTmp_;
    /** Hash-consing slots. */
    std::vector<uint32_t> indicator_;
    std::vector<uint32_t> litNode_;
    std::vector<uint32_t> marginal_;
    uint32_t false_ = kInvalidNode;
    uint32_t unit_ = kInvalidNode;
    std::string error_;
};

} // namespace

FlatCircuit
flatFromDnnf(const DnnfGraph &graph, const LitWeights &weights)
{
    reasonAssert(weights.pos.size() >= graph.numVars() &&
                     weights.neg.size() >= graph.numVars(),
                 "weights must cover every variable");
    // Feed the builder exactly the node sequence toC2dFormat()
    // serializes — reachable nodes only, ascending, renumbered — so a
    // streamed round-trip through the `.nnf` text reproduces these
    // arrays byte for byte.
    std::vector<bool> reachable(graph.numNodes(), false);
    reachable[graph.root()] = true;
    for (size_t i = graph.numNodes(); i-- > 0;) {
        if (!reachable[i])
            continue;
        for (NnfId c : graph.node(NnfId(i)).children)
            reachable[c] = true;
    }

    WmcFlatBuilder builder(graph.numVars(), weights);
    std::vector<NnfId> renumber(graph.numNodes(), logic::kInvalidNnf);
    std::vector<NnfId> mapped;
    for (size_t i = 0; i < graph.numNodes(); ++i) {
        if (!reachable[i])
            continue;
        const NnfNode &node = graph.node(NnfId(i));
        mapped.clear();
        for (NnfId c : node.children)
            mapped.push_back(renumber[c]);
        bool ok = builder.addNode(node.type, node.lit, node.decisionVar,
                                  mapped);
        reasonAssert(ok, "flatFromDnnf: d-DNNF violates decomposability");
        renumber[i] = NnfId(builder.numNodes() - 1);
    }
    return builder.finish();
}

FlatCircuit
compileCnfFlat(const logic::CnfFormula &formula)
{
    return compileCnfFlat(formula,
                          LitWeights::uniform(formula.numVars()));
}

FlatCircuit
compileCnfFlat(const logic::CnfFormula &formula, const LitWeights &weights)
{
    return flatFromDnnf(logic::compileToDnnf(formula), weights);
}

bool
streamNnfToFlat(std::istream &in, const LitWeights &weights,
                FlatCircuit *out, logic::NnfError *err)
{
    *err = logic::NnfError{};
    logic::NnfStreamParser parser(in);
    const uint32_t num_vars = parser.header().numVars;
    if (weights.pos.size() < num_vars || weights.neg.size() < num_vars) {
        err->message = "weights cover " +
                       std::to_string(std::min(weights.pos.size(),
                                               weights.neg.size())) +
                       " variables but the header declares " +
                       std::to_string(num_vars);
        err->line = 1;
        return false;
    }

    WmcFlatBuilder builder(num_vars, weights);
    logic::NnfStreamParser::Node node;
    for (;;) {
        logic::NnfStreamParser::Status st = parser.next(&node);
        if (st == logic::NnfStreamParser::Status::Error) {
            *err = parser.error();
            return false;
        }
        if (st == logic::NnfStreamParser::Status::End)
            break;
        if (!builder.addNode(node.type, node.lit, node.decisionVar,
                             node.children)) {
            err->message = builder.error();
            err->line = parser.line();
            return false;
        }
    }
    *out = builder.finish();
    return true;
}

double
flatLogWmc(const FlatCircuit &flat)
{
    CircuitEvaluator eval(flat);
    Assignment x(flat.numVars, kMissing);
    return eval.logLikelihood(x);
}

} // namespace pc
} // namespace reason
