/**
 * @file
 * Contract of Circuit::lowered(), the circuit's memoized flat lowering:
 * repeat calls share one pointer, every mutator drops the memo, copies
 * share it until either side mutates, assignment serves the assigned
 * structure, handed-out lowerings outlive mutation, and concurrent
 * callers on one const circuit lower once.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <latch>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "flat_test_util.h"
#include "pc/flat_pc.h"
#include "pc/pc.h"
#include "util/parallel.h"
#include "util/rng.h"

using namespace reason;
using testutil::expectSameArrays;

namespace {

/** A small circuit whose leaf 0 distribution encodes `variant`. */
pc::Circuit
makeCircuit(uint32_t variant)
{
    pc::Circuit c(2, 2);
    double p = 0.1 + 0.8 * double(variant % 97) / 97.0;
    pc::NodeId l0 = c.addLeaf(0, {p, 1.0 - p});
    pc::NodeId l1 = c.addLeaf(1, {0.5, 0.5});
    c.markRoot(c.addProduct({l0, l1}));
    return c;
}

bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/** `lowering` is bit-identical to a fresh lowering of `c`. */
void
expectCurrent(const pc::FlatCircuit &lowering, const pc::Circuit &c)
{
    expectSameArrays(lowering, pc::FlatCircuit(c));
}

} // namespace

TEST(LoweringMemo, RepeatCallReturnsSamePointer)
{
    const pc::Circuit c = makeCircuit(1);
    auto first = c.lowered();
    EXPECT_EQ(c.lowered().get(), first.get());
    expectCurrent(*first, c);
}

TEST(LoweringMemo, EveryMutatorDropsTheMemo)
{
    pc::Circuit c(2, 2);
    const std::vector<std::pair<std::string,
                                std::function<void(pc::Circuit &)>>>
        mutators = {
            {"addLeaf", [](pc::Circuit &m) { m.addLeaf(0, {1, 3}); }},
            {"addLeaf again", [](pc::Circuit &m) { m.addLeaf(1, {2, 2}); }},
            {"addProduct", [](pc::Circuit &m) { m.addProduct({0, 1}); }},
            {"addSum", [](pc::Circuit &m) { m.addSum({2, 0}, {1, 1}); }},
            {"markRoot", [](pc::Circuit &m) { m.markRoot(2); }},
            {"setSumWeights",
             [](pc::Circuit &m) {
                 const double w[] = {0.75, 0.25};
                 m.setSumWeights(3, w);
             }},
            {"setLeafDist",
             [](pc::Circuit &m) {
                 const double d[] = {0.5, 0.5};
                 m.setLeafDist(0, d);
             }},
        };
    std::shared_ptr<const pc::FlatCircuit> before;
    for (const auto &[name, mutate] : mutators) {
        SCOPED_TRACE(name);
        mutate(c);
        auto after = c.lowered();
        EXPECT_NE(after.get(), before.get());
        EXPECT_EQ(c.lowered().get(), after.get());
        expectCurrent(*after, c);
        before = after;
    }
}

TEST(LoweringMemo, SingleBitParameterChangesRelower)
{
    // Two mixture components over three variables.  Every change below
    // rewrites one parameter and keeps every count, so only a dropped
    // memo can tell the changed circuit from the lowered one.
    pc::Circuit c(3, 2);
    pc::NodeId a0 = c.addLeaf(0, {0.3, 0.7});
    pc::NodeId a1 = c.addLeaf(1, {0.6, 0.4});
    pc::NodeId a2 = c.addLeaf(2, {0.5, 0.5});
    pc::NodeId b0 = c.addLeaf(0, {0.8, 0.2});
    pc::NodeId pa = c.addProduct({a0, a1, a2});
    pc::NodeId pb = c.addProduct({b0, a1, a2});
    pc::NodeId root = c.addSum({pa, pb}, {0.25, 0.75});
    c.markRoot(root);

    struct Change
    {
        std::string name;
        pc::NodeId node;
        std::function<void(std::vector<double> &)> apply;
    };
    const double inf = std::numeric_limits<double>::infinity();
    const std::vector<Change> changes = {
        {"sum weight + 1 ulp", root,
         [&](std::vector<double> &w) { w[0] = std::nextafter(w[0], inf); }},
        {"sum weight sign bit", root,
         [](std::vector<double> &w) { w[1] = -w[1]; }},
        {"sum weight exponent bits", root,
         [](std::vector<double> &w) { w[0] *= 2.0; }},
        {"leaf dist - 1 ulp", a1,
         [](std::vector<double> &d) { d[1] = std::nextafter(d[1], 0.0); }},
        {"leaf dist sign bit", a1,
         [](std::vector<double> &d) { d[0] = -d[0]; }},
        {"leaf dist exponent bits", b0,
         [](std::vector<double> &d) { d[1] *= 2.0; }},
    };

    for (const Change &change : changes) {
        SCOPED_TRACE(change.name);
        auto before = c.lowered();
        ASSERT_EQ(c.lowered().get(), before.get());
        const pc::PcNode &n = c.node(change.node);
        const bool sum = n.type == pc::PcNodeType::Sum;
        const std::vector<double> saved = sum ? n.weights : n.dist;
        std::vector<double> changed = saved;
        change.apply(changed);
        if (sum)
            c.setSumWeights(change.node, changed);
        else
            c.setLeafDist(change.node, changed);

        auto after = c.lowered();
        EXPECT_NE(after.get(), before.get());
        EXPECT_FALSE(sameBits(after->edgeLogWeight,
                              before->edgeLogWeight) &&
                     sameBits(after->leafLogDist, before->leafLogDist));
        expectCurrent(*after, c);

        if (sum)
            c.setSumWeights(change.node, saved);
        else
            c.setLeafDist(change.node, saved);
    }
}

TEST(LoweringMemo, CopySharesMemoUntilEitherSideMutates)
{
    pc::Circuit c = makeCircuit(2);
    auto original = c.lowered();

    pc::Circuit copy = c;
    EXPECT_EQ(copy.lowered().get(), original.get());

    const double d[] = {0.9, 0.1};
    copy.setLeafDist(0, d);
    EXPECT_NE(copy.lowered().get(), original.get());
    EXPECT_EQ(c.lowered().get(), original.get());
    expectCurrent(*copy.lowered(), copy);

    pc::Circuit other = c;
    c.setLeafDist(1, d);
    EXPECT_NE(c.lowered().get(), original.get());
    EXPECT_EQ(other.lowered().get(), original.get());
    expectCurrent(*c.lowered(), c);
}

TEST(LoweringMemo, AssignmentServesTheAssignedStructure)
{
    // Overwrite one object with a structurally distinct circuit: the
    // object's old lowering must never be served for the new nodes.
    pc::Circuit c = makeCircuit(3);
    auto first = c.lowered();
    EXPECT_EQ(first->numNodes(), 3u);

    pc::Circuit bigger(2, 2);
    pc::NodeId l0 = bigger.addLeaf(0, {0.3, 0.7});
    pc::NodeId l1 = bigger.addLeaf(1, {0.6, 0.4});
    pc::NodeId l2 = bigger.addLeaf(0, {0.2, 0.8});
    pc::NodeId prod = bigger.addProduct({l0, l1});
    bigger.markRoot(bigger.addSum({prod, l2}, {0.5, 0.5}));
    auto second = bigger.lowered();
    c = bigger;

    // Assignment takes the source's memo.
    EXPECT_EQ(c.lowered().get(), second.get());
    EXPECT_NE(second.get(), first.get());
    EXPECT_EQ(second->numNodes(), bigger.numNodes());
    expectCurrent(*second, c);

    // Moving hands the memo over; the source keeps no nodes.
    pc::Circuit moved = std::move(c);
    EXPECT_EQ(moved.lowered().get(), second.get());
    EXPECT_EQ(c.numNodes(), 0u);
    c = makeCircuit(4);
    expectCurrent(*c.lowered(), c);

    // Same-content circuits built independently lower independently:
    // the memo belongs to an object and its copies, not to a structure.
    pc::Circuit twin_a = makeCircuit(5);
    pc::Circuit twin_b = makeCircuit(5);
    EXPECT_NE(twin_a.lowered().get(), twin_b.lowered().get());
    expectCurrent(*twin_a.lowered(), twin_b);
}

TEST(LoweringMemo, HandedOutLoweringOutlivesMutation)
{
    Rng rng(41);
    auto c = std::make_unique<pc::Circuit>(
        pc::randomCircuit(rng, 12, 2, 2, 3));
    auto first = c->lowered();
    const pc::FlatCircuit snapshot(*c);

    for (pc::NodeId id = 0; id < c->numNodes(); ++id) {
        const pc::PcNode &n = c->node(id);
        if (n.type == pc::PcNodeType::Leaf) {
            const double swapped[] = {n.dist[1], n.dist[0]};
            c->setLeafDist(id, swapped);
            break;
        }
    }
    auto second = c->lowered();
    EXPECT_NE(second.get(), first.get());

    // The fresh lowering reflects the mutation.
    util::ThreadPool serial(1);
    pc::Assignment x(c->numVars(), pc::kMissing);
    x[0] = 0;
    EXPECT_NEAR(pc::CircuitEvaluator(*second, &serial).logLikelihood(x),
                c->logLikelihood(x), 1e-12);

    // The earlier lowering is unchanged and outlives its circuit.
    c.reset();
    expectSameArrays(*first, snapshot);
}

TEST(LoweringMemo, ConcurrentCallersShareOnePointer)
{
    Rng rng(7);
    const pc::Circuit c = pc::randomCircuit(rng, 64, 2, 4, 8);
    constexpr int kThreads = 8;
    std::vector<std::shared_ptr<const pc::FlatCircuit>> got(kThreads);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            start.arrive_and_wait();
            got[t] = c.lowered();
        });
    for (std::thread &t : threads)
        t.join();
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(got[t].get(), got[0].get()) << "thread " << t;
    expectCurrent(*got[0], c);
}
