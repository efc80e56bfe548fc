#include "pc/pc.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "pc/flat_pc.h"
#include "util/logging.h"
#include "util/numeric.h"
#include "util/rng.h"

namespace reason {
namespace pc {

Circuit::Circuit(uint32_t num_vars, uint32_t arity)
    : numVars_(num_vars), arity_(arity)
{
    reasonAssert(num_vars > 0 && arity >= 2,
                 "circuit needs >=1 variable of arity >=2");
}

Circuit::Circuit(const Circuit &other)
    : numVars_(other.numVars_), arity_(other.arity_),
      nodes_(other.nodes_), root_(other.root_)
{
    std::lock_guard<std::mutex> lock(other.loweredMutex_);
    lowered_ = other.lowered_;
}

Circuit::Circuit(Circuit &&other) noexcept
    : numVars_(other.numVars_), arity_(other.arity_),
      nodes_(std::move(other.nodes_)), root_(other.root_),
      lowered_(std::move(other.lowered_))
{
    other.root_ = kInvalidNode;
}

Circuit &
Circuit::operator=(const Circuit &other)
{
    if (this != &other)
        *this = Circuit(other);
    return *this;
}

Circuit &
Circuit::operator=(Circuit &&other) noexcept
{
    if (this == &other)
        return *this;
    numVars_ = other.numVars_;
    arity_ = other.arity_;
    nodes_ = std::move(other.nodes_);
    root_ = other.root_;
    lowered_ = std::move(other.lowered_);
    other.nodes_.clear();
    other.root_ = kInvalidNode;
    return *this;
}

size_t
Circuit::numEdges() const
{
    size_t n = 0;
    for (const auto &node : nodes_)
        n += node.children.size();
    return n;
}

NodeId
Circuit::addLeaf(uint32_t var, std::vector<double> dist)
{
    reasonAssert(var < numVars_, "leaf variable out of range");
    reasonAssert(dist.size() == arity_, "leaf distribution arity mismatch");
    double sum = 0.0;
    for (double d : dist) {
        reasonAssert(d >= 0.0, "leaf probabilities must be non-negative");
        sum += d;
    }
    reasonAssert(sum > 0.0, "leaf distribution must have positive mass");
    for (double &d : dist)
        d /= sum;
    PcNode n;
    n.type = PcNodeType::Leaf;
    n.var = var;
    n.dist = std::move(dist);
    nodes_.push_back(std::move(n));
    lowered_.reset();
    root_ = static_cast<NodeId>(nodes_.size() - 1);
    return root_;
}

NodeId
Circuit::addProduct(std::vector<NodeId> children)
{
    reasonAssert(!children.empty(), "product needs children");
    for (NodeId c : children)
        reasonAssert(c < nodes_.size(), "product child must exist");
    PcNode n;
    n.type = PcNodeType::Product;
    n.children = std::move(children);
    nodes_.push_back(std::move(n));
    lowered_.reset();
    root_ = static_cast<NodeId>(nodes_.size() - 1);
    return root_;
}

NodeId
Circuit::addSum(std::vector<NodeId> children, std::vector<double> weights)
{
    reasonAssert(!children.empty(), "sum needs children");
    reasonAssert(children.size() == weights.size(),
                 "sum weights must align with children");
    for (NodeId c : children)
        reasonAssert(c < nodes_.size(), "sum child must exist");
    double total = 0.0;
    for (double w : weights) {
        reasonAssert(w >= 0.0, "sum weights must be non-negative");
        total += w;
    }
    reasonAssert(total > 0.0, "sum weights must have positive mass");
    for (double &w : weights)
        w /= total;
    PcNode n;
    n.type = PcNodeType::Sum;
    n.children = std::move(children);
    n.weights = std::move(weights);
    nodes_.push_back(std::move(n));
    lowered_.reset();
    root_ = static_cast<NodeId>(nodes_.size() - 1);
    return root_;
}

void
Circuit::markRoot(NodeId id)
{
    reasonAssert(id < nodes_.size(), "root must exist");
    root_ = id;
    lowered_.reset();
}

void
Circuit::setSumWeights(NodeId id, std::span<const double> weights)
{
    PcNode &n = nodes_.at(id);
    reasonAssert(n.type == PcNodeType::Sum, "setSumWeights needs a sum node");
    reasonAssert(weights.size() == n.weights.size(),
                 "sum weights must align with children");
    std::copy(weights.begin(), weights.end(), n.weights.begin());
    lowered_.reset();
}

void
Circuit::setLeafDist(NodeId id, std::span<const double> dist)
{
    PcNode &n = nodes_.at(id);
    reasonAssert(n.type == PcNodeType::Leaf, "setLeafDist needs a leaf");
    reasonAssert(dist.size() == arity_, "leaf distribution arity mismatch");
    std::copy(dist.begin(), dist.end(), n.dist.begin());
    lowered_.reset();
}

std::shared_ptr<const FlatCircuit>
Circuit::lowered() const
{
    std::lock_guard<std::mutex> lock(loweredMutex_);
    if (!lowered_)
        lowered_ = std::make_shared<const FlatCircuit>(*this);
    return lowered_;
}

std::vector<double>
Circuit::evaluate(const Assignment &x) const
{
    reasonAssert(x.size() >= numVars_, "assignment too short");
    std::vector<double> val(nodes_.size(), kLogZero);
    for (size_t i = 0; i < nodes_.size(); ++i) {
        const PcNode &n = nodes_[i];
        switch (n.type) {
          case PcNodeType::Leaf: {
            uint32_t v = x[n.var];
            if (v == kMissing) {
                val[i] = 0.0; // marginalized: sums to 1
            } else {
                reasonAssert(v < arity_, "assignment value out of range");
                val[i] = n.dist[v] > 0.0 ? std::log(n.dist[v]) : kLogZero;
            }
            break;
          }
          case PcNodeType::Product: {
            double acc = 0.0;
            for (NodeId c : n.children) {
                acc += val[c];
                if (acc == kLogZero)
                    break;
            }
            val[i] = acc;
            break;
          }
          case PcNodeType::Sum: {
            double acc = kLogZero;
            for (size_t k = 0; k < n.children.size(); ++k) {
                if (n.weights[k] <= 0.0)
                    continue;
                acc = logAdd(acc,
                             std::log(n.weights[k]) + val[n.children[k]]);
            }
            val[i] = acc;
            break;
          }
        }
    }
    return val;
}

double
Circuit::logLikelihood(const Assignment &x) const
{
    reasonAssert(root_ != kInvalidNode, "circuit has no root");
    return evaluate(x)[root_];
}

Assignment
Circuit::mapCompletion(const Assignment &x) const
{
    reasonAssert(root_ != kInvalidNode, "circuit has no root");
    // Upward max-product pass.
    std::vector<double> val(nodes_.size(), kLogZero);
    std::vector<uint32_t> best_child(nodes_.size(), 0);
    for (size_t i = 0; i < nodes_.size(); ++i) {
        const PcNode &n = nodes_[i];
        switch (n.type) {
          case PcNodeType::Leaf: {
            uint32_t v = x[n.var];
            if (v == kMissing) {
                double best = 0.0;
                uint32_t arg = 0;
                for (uint32_t k = 0; k < arity_; ++k) {
                    if (n.dist[k] > best) {
                        best = n.dist[k];
                        arg = k;
                    }
                }
                val[i] = best > 0.0 ? std::log(best) : kLogZero;
                best_child[i] = arg;
            } else {
                val[i] =
                    n.dist[v] > 0.0 ? std::log(n.dist[v]) : kLogZero;
                best_child[i] = v;
            }
            break;
          }
          case PcNodeType::Product: {
            double acc = 0.0;
            for (NodeId c : n.children)
                acc += val[c];
            val[i] = acc;
            break;
          }
          case PcNodeType::Sum: {
            double best = kLogZero;
            uint32_t arg = 0;
            for (size_t k = 0; k < n.children.size(); ++k) {
                if (n.weights[k] <= 0.0)
                    continue;
                double cand =
                    std::log(n.weights[k]) + val[n.children[k]];
                if (cand > best) {
                    best = cand;
                    arg = static_cast<uint32_t>(k);
                }
            }
            val[i] = best;
            best_child[i] = arg;
            break;
          }
        }
    }
    // Downward decoding.
    Assignment out = x;
    out.resize(numVars_, kMissing);
    std::vector<NodeId> stack{root_};
    while (!stack.empty()) {
        NodeId id = stack.back();
        stack.pop_back();
        const PcNode &n = nodes_[id];
        switch (n.type) {
          case PcNodeType::Leaf:
            if (out[n.var] == kMissing)
                out[n.var] = best_child[id];
            break;
          case PcNodeType::Product:
            for (NodeId c : n.children)
                stack.push_back(c);
            break;
          case PcNodeType::Sum:
            stack.push_back(n.children[best_child[id]]);
            break;
        }
    }
    // Any variable untouched by the selected subcircuit: fill greedily.
    for (uint32_t v = 0; v < numVars_; ++v)
        if (out[v] == kMissing)
            out[v] = 0;
    return out;
}

double
Circuit::bruteForceLogZ() const
{
    uint64_t limit = 0;
    reasonAssert(checkedIntPow(arity_, numVars_, uint64_t(1) << 22,
                               &limit),
                 "brute force partition too large");
    std::shared_ptr<const FlatCircuit> flat = lowered();
    CircuitEvaluator eval(*flat);
    Assignment x(numVars_, 0);
    double acc = kLogZero;
    for (uint64_t m = 0; m < limit; ++m) {
        uint64_t rest = m;
        for (uint32_t v = 0; v < numVars_; ++v) {
            x[v] = static_cast<uint32_t>(rest % arity_);
            rest /= arity_;
        }
        acc = logAdd(acc, eval.logLikelihood(x));
    }
    return acc;
}

void
Circuit::validate() const
{
    reasonAssert(root_ != kInvalidNode, "circuit has no root");
    for (size_t i = 0; i < nodes_.size(); ++i) {
        const PcNode &n = nodes_[i];
        for (NodeId c : n.children)
            reasonAssert(c < i, "children must precede parents");
        if (n.type == PcNodeType::Sum) {
            reasonAssert(n.children.size() == n.weights.size(),
                         "sum weight/child mismatch");
            double total = 0.0;
            for (double w : n.weights)
                total += w;
            reasonAssert(std::fabs(total - 1.0) < 1e-6,
                         "sum weights must be normalized");
        }
        if (n.type == PcNodeType::Leaf)
            reasonAssert(n.dist.size() == arity_, "leaf arity mismatch");
    }
}

std::vector<std::vector<uint32_t>>
Circuit::scopes() const
{
    std::vector<std::vector<uint32_t>> scope(nodes_.size());
    for (size_t i = 0; i < nodes_.size(); ++i) {
        const PcNode &n = nodes_[i];
        if (n.type == PcNodeType::Leaf) {
            scope[i] = {n.var};
            continue;
        }
        std::set<uint32_t> merged;
        for (NodeId c : n.children)
            merged.insert(scope[c].begin(), scope[c].end());
        scope[i].assign(merged.begin(), merged.end());
    }
    return scope;
}

bool
Circuit::isSmoothAndDecomposable() const
{
    auto scope = scopes();
    for (size_t i = 0; i < nodes_.size(); ++i) {
        const PcNode &n = nodes_[i];
        if (n.type == PcNodeType::Sum) {
            for (NodeId c : n.children)
                if (scope[c] != scope[n.children[0]])
                    return false;
        } else if (n.type == PcNodeType::Product) {
            size_t total = 0;
            for (NodeId c : n.children)
                total += scope[c].size();
            if (total != scope[i].size())
                return false; // overlap detected
        }
    }
    return true;
}

namespace {

/** Recursive region-graph construction for randomCircuit. */
std::vector<NodeId>
buildRegion(Rng &rng, Circuit &circuit, const std::vector<uint32_t> &vars,
            uint32_t num_sums, uint32_t num_inputs)
{
    if (vars.size() == 1) {
        std::vector<NodeId> leaves;
        for (uint32_t s = 0; s < num_sums; ++s)
            leaves.push_back(
                circuit.addLeaf(vars[0],
                                rng.dirichlet(circuit.arity(), 2.0)));
        return leaves;
    }
    // Balanced split.
    size_t half = vars.size() / 2;
    std::vector<uint32_t> left(vars.begin(), vars.begin() + half);
    std::vector<uint32_t> right(vars.begin() + half, vars.end());
    auto left_nodes = buildRegion(rng, circuit, left, num_sums, num_inputs);
    auto right_nodes =
        buildRegion(rng, circuit, right, num_sums, num_inputs);

    // Cross products of left x right representatives.
    std::vector<NodeId> products;
    for (NodeId l : left_nodes)
        for (NodeId r : right_nodes)
            products.push_back(circuit.addProduct({l, r}));

    std::vector<NodeId> sums;
    uint32_t inputs = std::min<uint32_t>(
        num_inputs, static_cast<uint32_t>(products.size()));
    for (uint32_t s = 0; s < num_sums; ++s) {
        // Random subset of products as children.
        std::vector<NodeId> pool = products;
        rng.shuffle(pool);
        pool.resize(inputs);
        sums.push_back(circuit.addSum(pool, rng.dirichlet(inputs, 1.0)));
    }
    return sums;
}

} // namespace

Circuit
randomCircuit(Rng &rng, uint32_t num_vars, uint32_t arity,
              uint32_t num_sums, uint32_t num_inputs)
{
    Circuit circuit(num_vars, arity);
    std::vector<uint32_t> vars(num_vars);
    for (uint32_t v = 0; v < num_vars; ++v)
        vars[v] = v;
    auto roots = buildRegion(rng, circuit, vars, num_sums, num_inputs);
    if (roots.size() == 1) {
        circuit.markRoot(roots[0]);
    } else {
        NodeId root = circuit.addSum(
            roots, rng.dirichlet(roots.size(), 1.0));
        circuit.markRoot(root);
    }
    circuit.validate();
    return circuit;
}

std::vector<Assignment>
sampleDataset(Rng &rng, const Circuit &circuit, size_t count)
{
    std::vector<Assignment> data;
    data.reserve(count);
    // Explicit descent stack reused across samples (no recursion, no
    // per-sample allocation).  Children are pushed in reverse so the
    // visit order — and hence the RNG stream — matches the recursive
    // pre-order walk this replaced.
    std::vector<NodeId> stack;
    for (size_t i = 0; i < count; ++i) {
        Assignment x(circuit.numVars(), kMissing);
        stack.clear();
        stack.push_back(circuit.root());
        while (!stack.empty()) {
            const PcNode &n = circuit.node(stack.back());
            stack.pop_back();
            switch (n.type) {
              case PcNodeType::Leaf:
                x[n.var] =
                    static_cast<uint32_t>(rng.categorical(n.dist));
                break;
              case PcNodeType::Product:
                for (size_t k = n.children.size(); k-- > 0;)
                    stack.push_back(n.children[k]);
                break;
              case PcNodeType::Sum: {
                size_t k = rng.categorical(n.weights);
                stack.push_back(n.children[k]);
                break;
              }
            }
        }
        for (auto &v : x)
            if (v == kMissing)
                v = 0;
        data.push_back(std::move(x));
    }
    return data;
}

} // namespace pc
} // namespace reason
