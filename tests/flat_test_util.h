/**
 * @file
 * Shared test helper: bitwise comparison of two flat circuits'
 * canonical arrays (the schedules and parent transpose derive from
 * them).
 */

#ifndef REASON_TESTS_FLAT_TEST_UTIL_H
#define REASON_TESTS_FLAT_TEST_UTIL_H

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "pc/flat_pc.h"

namespace reason {
namespace testutil {

/** Assert `a` and `b` have bit-identical canonical arrays. */
inline void
expectSameArrays(const pc::FlatCircuit &a, const pc::FlatCircuit &b)
{
    const auto bits = [](double d) { return std::bit_cast<uint64_t>(d); };
    ASSERT_EQ(a.numVars, b.numVars);
    ASSERT_EQ(a.arity, b.arity);
    ASSERT_EQ(a.root, b.root);
    ASSERT_EQ(a.types, b.types);
    ASSERT_EQ(a.edgeOffset, b.edgeOffset);
    ASSERT_EQ(a.edgeTarget, b.edgeTarget);
    ASSERT_EQ(a.leafSlot, b.leafSlot);
    ASSERT_EQ(a.leafVar, b.leafVar);
    ASSERT_EQ(a.edgeLogWeight.size(), b.edgeLogWeight.size());
    for (size_t i = 0; i < a.edgeLogWeight.size(); ++i)
        ASSERT_EQ(bits(a.edgeLogWeight[i]), bits(b.edgeLogWeight[i]))
            << "edge " << i;
    ASSERT_EQ(a.leafLogDist.size(), b.leafLogDist.size());
    for (size_t i = 0; i < a.leafLogDist.size(); ++i)
        ASSERT_EQ(bits(a.leafLogDist[i]), bits(b.leafLogDist[i]))
            << "slot " << i;
}

} // namespace testutil
} // namespace reason

#endif // REASON_TESTS_FLAT_TEST_UTIL_H
