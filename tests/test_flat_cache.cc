/**
 * @file
 * Unit tests for pc::cachedLowering's LRU cache: eviction at capacity,
 * same-bucket fingerprint conflicts (structurally distinct circuits at
 * one address), single-field changes that must miss, byte-equal
 * circuits at distinct addresses, and hit/miss/eviction counter
 * correctness.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "pc/flat_cache.h"
#include "pc/flat_pc.h"
#include "pc/pc.h"
#include "util/parallel.h"
#include "util/rng.h"

using namespace reason;

namespace {

constexpr size_t kCacheCapacity = pc::kFlatCacheCapacity;

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

} // namespace

TEST(FlatCacheCounters, HitMissEvictionAccounting)
{
    pc::clearFlatCache();
    pc::Circuit c = makeCircuit(1);

    auto first = pc::cachedLowering(c);
    auto second = pc::cachedLowering(c);
    EXPECT_EQ(first.get(), second.get());
    pc::FlatCacheStats stats = pc::flatCacheStats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.evictions, 0u);

    // In-place parameter mutation: same bucket, new fingerprint.
    c.mutableNode(0).dist = {0.9, 0.1};
    auto third = pc::cachedLowering(c);
    EXPECT_NE(third.get(), first.get());
    stats = pc::flatCacheStats();
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.evictions, 0u);

    // clearFlatCache zeroes the counters.
    pc::clearFlatCache();
    stats = pc::flatCacheStats();
    EXPECT_EQ(stats.misses, 0u);
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.evictions, 0u);
}

TEST(FlatCacheLru, EvictsOldestAtCapacity)
{
    pc::clearFlatCache();
    // kCacheCapacity + 1 distinct circuits alive at distinct addresses.
    std::vector<std::unique_ptr<pc::Circuit>> circuits;
    std::vector<std::shared_ptr<const pc::FlatCircuit>> lowered;
    for (uint32_t i = 0; i < kCacheCapacity + 1; ++i) {
        circuits.push_back(
            std::make_unique<pc::Circuit>(makeCircuit(i)));
        lowered.push_back(pc::cachedLowering(*circuits.back()));
    }
    pc::FlatCacheStats stats = pc::flatCacheStats();
    EXPECT_EQ(stats.misses, kCacheCapacity + 1);
    EXPECT_EQ(stats.hits, 0u);
    // Inserting entry 17 evicted exactly one (the oldest: circuit 0).
    EXPECT_EQ(stats.evictions, 1u);

    // Circuit 0 was evicted: re-lowering misses (and evicts the next
    // oldest, circuit 1); the most recent entries still hit.
    auto again0 = pc::cachedLowering(*circuits[0]);
    stats = pc::flatCacheStats();
    EXPECT_EQ(stats.misses, kCacheCapacity + 2);
    EXPECT_EQ(stats.evictions, 2u);

    auto again_last = pc::cachedLowering(*circuits[kCacheCapacity]);
    EXPECT_EQ(again_last.get(), lowered[kCacheCapacity].get());
    stats = pc::flatCacheStats();
    EXPECT_EQ(stats.hits, 1u);

    // LRU recency follows use, not insertion: circuit 1 was evicted by
    // the re-insert of circuit 0, so it misses now.
    auto again1 = pc::cachedLowering(*circuits[1]);
    stats = pc::flatCacheStats();
    EXPECT_EQ(stats.misses, kCacheCapacity + 3);

    // Evicted lowerings stay alive through their shared_ptrs and are
    // still usable.
    util::ThreadPool serial(1);
    pc::CircuitEvaluator eval(*lowered[0], &serial);
    pc::Assignment x{0, 1};
    EXPECT_NEAR(eval.logLikelihood(x), circuits[0]->logLikelihood(x),
                1e-12);
    pc::clearFlatCache();
}

TEST(FlatCacheIdentity, SameBucketDistinctStructureNeverShares)
{
    pc::clearFlatCache();
    // Overwrite one object in place with a structurally distinct
    // circuit: the address bucket matches the cached entry but the
    // fingerprint must not, so the stale lowering is never served.
    pc::Circuit c = makeCircuit(3);
    auto first = pc::cachedLowering(c);
    EXPECT_EQ(first->numNodes(), 3u);

    pc::Circuit bigger(2, 2);
    pc::NodeId l0 = bigger.addLeaf(0, {0.3, 0.7});
    pc::NodeId l1 = bigger.addLeaf(1, {0.6, 0.4});
    pc::NodeId l2 = bigger.addLeaf(0, {0.2, 0.8});
    pc::NodeId prod = bigger.addProduct({l0, l1});
    bigger.markRoot(bigger.addSum({prod, l2}, {0.5, 0.5}));
    c = bigger; // same address, different structure

    auto second = pc::cachedLowering(c);
    EXPECT_NE(second.get(), first.get());
    EXPECT_EQ(second->numNodes(), bigger.numNodes());
    pc::FlatCacheStats stats = pc::flatCacheStats();
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.hits, 0u);

    // Same-content circuits at *different* addresses occupy different
    // buckets (two misses), but both lowerings are correct.
    pc::Circuit twin_a = makeCircuit(5);
    pc::Circuit twin_b = makeCircuit(5);
    auto flat_a = pc::cachedLowering(twin_a);
    auto flat_b = pc::cachedLowering(twin_b);
    EXPECT_NE(flat_a.get(), flat_b.get());
    EXPECT_EQ(flat_a->numNodes(), flat_b->numNodes());
    stats = pc::flatCacheStats();
    EXPECT_EQ(stats.misses, 4u);
    pc::clearFlatCache();
}

TEST(FlatCache, MissesOnSingleFieldChange)
{
    // Two mixture components over three variables: one sum, two
    // products, four leaves.  Every change below rewrites exactly one
    // hashed field and keeps every count, so only the hash can tell
    // the changed circuit from the cached one.
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
        std::function<void(pc::PcNode &)> apply;
    };
    const double inf = std::numeric_limits<double>::infinity();
    const std::vector<Change> changes = {
        {"sum weight + 1 ulp", root,
         [&](pc::PcNode &n) {
             n.weights[0] = std::nextafter(n.weights[0], inf);
         }},
        {"sum weight sign bit", root,
         [](pc::PcNode &n) { n.weights[1] = -n.weights[1]; }},
        {"sum weight exponent bits", root,
         [](pc::PcNode &n) { n.weights[0] *= 2.0; }},
        {"leaf dist entry", a1,
         [](pc::PcNode &n) {
             n.dist[1] = std::nextafter(n.dist[1], 0.0);
         }},
        {"leaf var", b0, [](pc::PcNode &n) { n.var = 2; }},
        {"product child id", pa,
         [&](pc::PcNode &n) { n.children[0] = b0; }},
    };

    for (const Change &change : changes) {
        SCOPED_TRACE(change.name);
        pc::clearFlatCache();
        auto before = pc::cachedLowering(c);
        ASSERT_EQ(pc::cachedLowering(c).get(), before.get());
        const pc::PcNode saved = c.node(change.node);
        change.apply(c.mutableNode(change.node));
        const size_t nodes = c.numNodes(), edges = c.numEdges();

        auto after = pc::cachedLowering(c);
        EXPECT_NE(after.get(), before.get());
        pc::FlatCacheStats stats = pc::flatCacheStats();
        EXPECT_EQ(stats.hits, 1u);
        EXPECT_EQ(stats.misses, 2u);
        EXPECT_EQ(after->numNodes(), nodes);
        EXPECT_EQ(after->numEdges(), edges);
        // The flat fingerprint shares the mixer and must move too.
        EXPECT_NE(pc::structuralFingerprint(*after),
                  pc::structuralFingerprint(*before));

        c.mutableNode(change.node) = saved;
    }
    pc::clearFlatCache();
}
