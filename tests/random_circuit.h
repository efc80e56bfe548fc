/**
 * @file
 * Seeded random probabilistic-circuit generator for differential
 * testing (tests/test_flat_random.cc).
 *
 * The generated DAGs deliberately cover the structures the flat
 * engines special-case: mixed sum/product arities, shared sub-DAGs
 * (children drawn uniformly from every node built so far), degenerate
 * single-child sums and products, leaves whose distributions contain
 * exact zeros, and all-zero-weight sum nodes (installed by mutating a
 * normalized sum after construction, the only way past addSum's
 * positive-mass check).  Circuits are *not* necessarily smooth or
 * decomposable — the reference walkers and the flat engines must agree
 * on arbitrary well-formed DAGs.
 */

#ifndef REASON_TESTS_RANDOM_CIRCUIT_H
#define REASON_TESTS_RANDOM_CIRCUIT_H

#include <cstdint>
#include <vector>

#include "pc/pc.h"
#include "util/rng.h"

namespace reason {
namespace testutil {

/** Random leaf distribution; may contain exact zeros but never all. */
inline std::vector<double>
randomLeafDist(Rng &rng, uint32_t arity)
{
    std::vector<double> dist(arity, 0.0);
    for (uint32_t v = 0; v < arity; ++v)
        dist[v] = rng.bernoulli(0.25) ? 0.0 : rng.uniformReal(0.05, 1.0);
    // addLeaf requires positive mass.
    dist[uint32_t(rng.uniformInt(0, arity - 1))] =
        rng.uniformReal(0.05, 1.0);
    return dist;
}

/**
 * One random circuit: 2-6 variables of arity 2-3, roughly 10-50 nodes.
 * Every structural degenerate case above appears with fixed
 * probability, so ~200 draws cover each many times over.
 */
inline pc::Circuit
randomTestCircuit(Rng &rng)
{
    const uint32_t num_vars = uint32_t(rng.uniformInt(2, 6));
    const uint32_t arity = uint32_t(rng.uniformInt(2, 3));
    pc::Circuit c(num_vars, arity);

    std::vector<pc::NodeId> pool;
    // One leaf per variable so every circuit can touch every variable.
    for (uint32_t v = 0; v < num_vars; ++v)
        pool.push_back(c.addLeaf(v, randomLeafDist(rng, arity)));

    auto pick = [&]() {
        return pool[size_t(rng.uniformInt(0, int64_t(pool.size()) - 1))];
    };
    auto pick_children = [&](uint32_t lo, uint32_t hi) {
        std::vector<pc::NodeId> children;
        const uint32_t fan = uint32_t(rng.uniformInt(lo, hi));
        for (uint32_t k = 0; k < fan; ++k)
            children.push_back(pick()); // duplicates allowed
        return children;
    };

    const uint32_t interior = uint32_t(rng.uniformInt(6, 40));
    for (uint32_t i = 0; i < interior; ++i) {
        switch (rng.uniformInt(0, 5)) {
          case 0: // extra leaf (shared sub-DAG fodder)
            pool.push_back(
                c.addLeaf(uint32_t(rng.uniformInt(0, num_vars - 1)),
                          randomLeafDist(rng, arity)));
            break;
          case 1: { // degenerate single-child sum
            pool.push_back(c.addSum({pick()}, {1.0}));
            break;
          }
          case 2: // degenerate single-child product
            pool.push_back(c.addProduct({pick()}));
            break;
          case 3: { // all-zero-weight sum (mutated past normalization)
            std::vector<pc::NodeId> children = pick_children(1, 3);
            const std::vector<double> zeros(children.size(), 0.0);
            std::vector<double> weights(children.size(), 1.0);
            pc::NodeId id =
                c.addSum(std::move(children), std::move(weights));
            c.setSumWeights(id, zeros);
            pool.push_back(id);
            break;
          }
          case 4: { // mixed-arity sum, weights may include zeros
            std::vector<pc::NodeId> children = pick_children(2, 5);
            std::vector<double> weights(children.size(), 0.0);
            for (double &w : weights)
                w = rng.bernoulli(0.2) ? 0.0
                                       : rng.uniformReal(0.1, 1.0);
            weights[0] = rng.uniformReal(0.1, 1.0); // positive mass
            pool.push_back(
                c.addSum(std::move(children), std::move(weights)));
            break;
          }
          default: // mixed-arity product
            pool.push_back(c.addProduct(pick_children(2, 4)));
            break;
        }
    }

    // Root: a sum over a handful of recent nodes, so most of the DAG
    // is reachable and the root is never the all-zero degenerate.
    std::vector<pc::NodeId> root_children = pick_children(2, 4);
    std::vector<double> root_weights;
    for (size_t k = 0; k < root_children.size(); ++k)
        root_weights.push_back(rng.uniformReal(0.1, 1.0));
    c.markRoot(c.addSum(std::move(root_children),
                        std::move(root_weights)));
    return c;
}

/** Random assignments, a `missing_prob` fraction marginalized out. */
inline std::vector<pc::Assignment>
randomPartialAssignments(Rng &rng, const pc::Circuit &c, size_t count,
                         double missing_prob)
{
    std::vector<pc::Assignment> out(count);
    for (auto &x : out) {
        x.resize(c.numVars());
        for (uint32_t v = 0; v < c.numVars(); ++v)
            x[v] = rng.bernoulli(missing_prob)
                       ? pc::kMissing
                       : uint32_t(rng.uniformInt(0, c.arity() - 1));
    }
    return out;
}

} // namespace testutil
} // namespace reason

#endif // REASON_TESTS_RANDOM_CIRCUIT_H
