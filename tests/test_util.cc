/**
 * @file
 * Unit tests for the util module: RNG determinism and distribution
 * sanity, statistics containers, tables, numeric helpers, and the
 * strict count parser of the command-line tools.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "util/numeric.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

using namespace reason;

TEST(Rng, DeterministicForSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a() == b()) ? 1 : 0;
    EXPECT_LT(same, 4);
}

TEST(Rng, UniformIntBoundsRespected)
{
    Rng rng(7);
    for (int i = 0; i < 2000; ++i) {
        int64_t v = rng.uniformInt(-5, 17);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 17);
    }
}

TEST(Rng, UniformIntSingletonRange)
{
    Rng rng(7);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(rng.uniformInt(3, 3), 3);
}

TEST(Rng, Uniform01InRange)
{
    Rng rng(9);
    double mean = 0.0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform01();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        mean += u;
    }
    mean /= 10000.0;
    EXPECT_NEAR(mean, 0.5, 0.02);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(11);
    StatAccumulator acc;
    for (int i = 0; i < 20000; ++i)
        acc.add(rng.gaussian(3.0, 2.0));
    EXPECT_NEAR(acc.mean(), 3.0, 0.1);
    EXPECT_NEAR(acc.stddev(), 2.0, 0.1);
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(13);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += rng.bernoulli(0.3) ? 1 : 0;
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(Rng, CategoricalFollowsWeights)
{
    Rng rng(17);
    std::vector<double> w{1.0, 3.0, 6.0};
    std::vector<int> counts(3, 0);
    for (int i = 0; i < 20000; ++i)
        ++counts[rng.categorical(w)];
    EXPECT_NEAR(counts[0] / 20000.0, 0.1, 0.02);
    EXPECT_NEAR(counts[1] / 20000.0, 0.3, 0.02);
    EXPECT_NEAR(counts[2] / 20000.0, 0.6, 0.02);
}

TEST(Rng, DirichletSumsToOne)
{
    Rng rng(19);
    for (double alpha : {0.5, 1.0, 4.0}) {
        auto p = rng.dirichlet(8, alpha);
        double total = 0.0;
        for (double v : p) {
            EXPECT_GE(v, 0.0);
            total += v;
        }
        EXPECT_NEAR(total, 1.0, 1e-9);
    }
}

TEST(Rng, PermutationIsBijective)
{
    Rng rng(23);
    auto p = rng.permutation(64);
    std::vector<bool> seen(64, false);
    for (uint32_t v : p) {
        ASSERT_LT(v, 64u);
        EXPECT_FALSE(seen[v]);
        seen[v] = true;
    }
}

TEST(Rng, ExponentialMean)
{
    Rng rng(29);
    StatAccumulator acc;
    for (int i = 0; i < 20000; ++i)
        acc.add(rng.exponential(2.0));
    EXPECT_NEAR(acc.mean(), 0.5, 0.02);
}

TEST(StatAccumulator, MatchesDirectComputation)
{
    StatAccumulator acc;
    std::vector<double> xs{1.0, 2.0, 4.0, 8.0, 16.0};
    for (double x : xs)
        acc.add(x);
    EXPECT_EQ(acc.count(), 5u);
    EXPECT_DOUBLE_EQ(acc.sum(), 31.0);
    EXPECT_DOUBLE_EQ(acc.mean(), 6.2);
    EXPECT_DOUBLE_EQ(acc.min(), 1.0);
    EXPECT_DOUBLE_EQ(acc.max(), 16.0);
    // Sample variance: sum((x-6.2)^2)/4 = 37.2
    EXPECT_NEAR(acc.variance(), 37.2, 1e-9);
}

TEST(StatAccumulator, MergeEqualsCombined)
{
    Rng rng(31);
    StatAccumulator a, b, all;
    for (int i = 0; i < 500; ++i) {
        double x = rng.gaussian();
        if (i % 2) {
            a.add(x);
        } else {
            b.add(x);
        }
        all.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Histogram, BucketsAndPercentiles)
{
    Histogram h(0.0, 10.0, 10);
    for (int i = 0; i < 100; ++i)
        h.add(i / 10.0); // 0.0 .. 9.9 uniformly
    EXPECT_EQ(h.total(), 100u);
    EXPECT_EQ(h.underflow(), 0u);
    EXPECT_EQ(h.overflow(), 0u);
    for (size_t b = 0; b < h.bins(); ++b)
        EXPECT_EQ(h.binCount(b), 10u);
    EXPECT_NEAR(h.percentile(0.5), 5.0, 1.01);
    EXPECT_NEAR(h.percentile(0.99), 10.0, 1.01);
}

TEST(Histogram, OverflowUnderflowCounted)
{
    Histogram h(0.0, 1.0, 4);
    h.add(-1.0);
    h.add(2.0);
    h.add(0.5);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.total(), 3u);
}

TEST(StatGroup, CountersAccumulateAndClear)
{
    StatGroup g;
    g.inc("a");
    g.inc("a", 4);
    g.inc("b", 2);
    EXPECT_EQ(g.get("a"), 5u);
    EXPECT_EQ(g.get("b"), 2u);
    EXPECT_EQ(g.get("missing"), 0u);
    g.clear();
    EXPECT_EQ(g.get("a"), 0u);
}

TEST(Table, RendersAlignedRows)
{
    Table t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"beta", "22"});
    std::string s = t.toString();
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("22"), std::string::npos);
    // Header separator present.
    EXPECT_NE(s.find("|---"), std::string::npos);
}

TEST(Table, Formatters)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::percent(0.5), "50.0%");
    EXPECT_EQ(Table::ratio(12.4, 1), "12.4x");
}

TEST(Numeric, LogAddMatchesDirect)
{
    double a = std::log(0.3), b = std::log(0.7);
    EXPECT_NEAR(logAdd(a, b), std::log(1.0), 1e-12);
    EXPECT_DOUBLE_EQ(logAdd(kLogZero, a), a);
    EXPECT_DOUBLE_EQ(logAdd(a, kLogZero), a);
}

TEST(Numeric, LogSumExpStable)
{
    std::vector<double> xs{1000.0, 1000.0};
    EXPECT_NEAR(logSumExp(xs), 1000.0 + std::log(2.0), 1e-9);
    EXPECT_EQ(logSumExp({}), kLogZero);
}

TEST(Numeric, CeilHelpers)
{
    EXPECT_EQ(ceilDiv(7, 2), 4);
    EXPECT_EQ(ceilDiv(8, 2), 4);
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(2), 1u);
    EXPECT_EQ(ceilLog2(5), 3u);
    EXPECT_EQ(nextPow2(5), 8u);
    EXPECT_EQ(nextPow2(8), 8u);
}

TEST(Numeric, NearlyEqual)
{
    EXPECT_TRUE(nearlyEqual(1.0, 1.0 + 1e-12));
    EXPECT_FALSE(nearlyEqual(1.0, 1.1));
    EXPECT_TRUE(nearlyEqual(0.0, 0.0));
}

TEST(ParseCount, RejectsMalformedText)
{
    uint64_t out = 77;
    EXPECT_FALSE(util::parseCount("", 0, 100, &out));
    EXPECT_FALSE(util::parseCount("abc", 0, 100, &out));
    EXPECT_FALSE(util::parseCount("12x", 0, 100, &out));
    EXPECT_FALSE(util::parseCount(" 12", 0, 100, &out));
    EXPECT_FALSE(util::parseCount("1.5", 0, 100, &out));
    EXPECT_FALSE(util::parseCount("-5", 0, 100, &out));
    EXPECT_FALSE(util::parseCount("-0", 0, 100, &out));
    EXPECT_FALSE(util::parseCount("+5", 0, 100, &out));
    EXPECT_EQ(out, 77u) << "a rejected parse must not write *out";
}

TEST(ParseCount, EnforcesBothBoundsInclusively)
{
    uint64_t out = 0;
    ASSERT_TRUE(util::parseCount("2", 2, 20000, &out));
    EXPECT_EQ(out, 2u);
    ASSERT_TRUE(util::parseCount("20000", 2, 20000, &out));
    EXPECT_EQ(out, 20000u);
    ASSERT_TRUE(util::parseCount("007", 2, 20000, &out));
    EXPECT_EQ(out, 7u);
    EXPECT_FALSE(util::parseCount("1", 2, 20000, &out));
    EXPECT_FALSE(util::parseCount("0", 2, 20000, &out));
    EXPECT_FALSE(util::parseCount("20001", 2, 20000, &out));
    // A single digit above a maximum below 9.
    EXPECT_FALSE(util::parseCount("5", 0, 3, &out));
    ASSERT_TRUE(util::parseCount("3", 0, 3, &out));
    EXPECT_EQ(out, 3u);
    // The thread-count range of the --threads arguments.
    ASSERT_TRUE(util::parseCount("0", 0, util::kMaxThreads, &out));
    EXPECT_EQ(out, 0u);
    ASSERT_TRUE(util::parseCount("1024", 0, util::kMaxThreads, &out));
    EXPECT_EQ(out, util::kMaxThreads);
    EXPECT_FALSE(util::parseCount("1025", 0, util::kMaxThreads, &out));
}

TEST(ParseCount, RejectsOverflowPastMax)
{
    constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
    uint64_t out = 0;
    ASSERT_TRUE(util::parseCount("18446744073709551615", 0, kMax, &out));
    EXPECT_EQ(out, kMax);
    EXPECT_FALSE(util::parseCount("18446744073709551616", 0, kMax, &out));
    EXPECT_FALSE(
        util::parseCount("99999999999999999999999", 0, kMax, &out));
    // Values that would wrap an unsigned 32-bit count are rejected.
    EXPECT_FALSE(util::parseCount("4294967296", 0, util::kMaxThreads,
                                  &out));
}
