/**
 * @file
 * Tests for knowledge compilation: CNF -> d-DNNF structure, exact model
 * counting against brute force, weighted model counting against
 * enumeration, conditional marginals, and the d-DNNF -> probabilistic
 * circuit conversion (R2-Guard path), all on random instance sweeps;
 * plus a pinned graph-identity check of the compiler and the empty-clause
 * edge case through the compiler, the flat route and `reason_cli count`.
 */

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "logic/cnf.h"
#include "logic/knowledge.h"
#include "logic/nnf_io.h"
#include "pc/from_logic.h"
#include "run_command.h"
#include "util/numeric.h"
#include "util/rng.h"

using namespace reason;
using namespace reason::logic;

namespace {

/** Brute-force WMC by enumerating all assignments. */
double
bruteForceWmc(const CnfFormula &f, const LitWeights &w)
{
    uint32_t n = f.numVars();
    double total = 0.0;
    for (uint64_t bits = 0; bits < (uint64_t(1) << n); ++bits) {
        std::vector<bool> x(n);
        double weight = 1.0;
        for (uint32_t v = 0; v < n; ++v) {
            x[v] = (bits >> v) & 1;
            weight *= x[v] ? w.pos[v] : w.neg[v];
        }
        if (f.evaluate(x))
            total += weight;
    }
    return total;
}

} // namespace

TEST(Dnnf, TrivialFormulas)
{
    // No clauses: every assignment is a model.
    CnfFormula empty(3);
    DnnfGraph g = compileToDnnf(empty);
    g.validate();
    EXPECT_DOUBLE_EQ(g.modelCount(), 8.0);

    // Single unit clause: half the assignments.
    CnfFormula unit(3);
    unit.addClause({1});
    EXPECT_DOUBLE_EQ(compileToDnnf(unit).modelCount(), 4.0);

    // Contradiction.
    CnfFormula contra(2);
    contra.addClause({1});
    contra.addClause({-1});
    EXPECT_DOUBLE_EQ(compileToDnnf(contra).modelCount(), 0.0);
}

TEST(Dnnf, XorChainCount)
{
    // (x0 xor x1) as CNF: (x0 | x1) & (~x0 | ~x1) -> 2 models.
    CnfFormula f(2);
    f.addClause({1, 2});
    f.addClause({-1, -2});
    DnnfGraph g = compileToDnnf(f);
    g.validate();
    EXPECT_DOUBLE_EQ(g.modelCount(), 2.0);
}

TEST(Dnnf, ComponentDecompositionFires)
{
    // Two independent constraints over disjoint variables.
    CnfFormula f(4);
    f.addClause({1, 2});
    f.addClause({3, 4});
    DnnfGraph g = compileToDnnf(f);
    g.validate();
    EXPECT_DOUBLE_EQ(g.modelCount(), 9.0); // 3 * 3
    EXPECT_GE(g.stats().componentSplits, 1u);
}

TEST(Dnnf, CacheHitsOnRepeatedStructure)
{
    // A chain formula where subproblems recur under both branch phases.
    CnfFormula f(8);
    for (int i = 1; i <= 6; ++i)
        f.addClause({i, i + 1, i + 2});
    DnnfGraph g = compileToDnnf(f);
    EXPECT_GT(g.stats().cacheHits, 0u);
    EXPECT_DOUBLE_EQ(g.modelCount(),
                     double(f.bruteForceCountModels()));
}

TEST(Dnnf, IsModelAgreesWithEvaluate)
{
    Rng rng(11);
    CnfFormula f = randomKSat(rng, 10, 28, 3);
    DnnfGraph g = compileToDnnf(f);
    g.validate();
    for (uint64_t bits = 0; bits < (1u << 10); ++bits) {
        std::vector<bool> x(10);
        for (uint32_t v = 0; v < 10; ++v)
            x[v] = (bits >> v) & 1;
        EXPECT_EQ(g.isModel(x), f.evaluate(x));
    }
}

struct DnnfSweepParam
{
    uint32_t vars;
    uint32_t clauses;
    uint32_t k;
    uint64_t seed;
};

class DnnfSweep : public ::testing::TestWithParam<DnnfSweepParam>
{
};

TEST_P(DnnfSweep, ModelCountMatchesBruteForce)
{
    auto p = GetParam();
    Rng rng(p.seed);
    CnfFormula f = randomKSat(rng, p.vars, p.clauses, p.k);
    DnnfGraph g = compileToDnnf(f);
    g.validate();
    EXPECT_DOUBLE_EQ(g.modelCount(), double(f.bruteForceCountModels()));
}

TEST_P(DnnfSweep, WmcMatchesEnumeration)
{
    auto p = GetParam();
    Rng rng(p.seed + 1000);
    CnfFormula f = randomKSat(rng, p.vars, p.clauses, p.k);
    LitWeights w = LitWeights::random(rng, p.vars);
    DnnfGraph g = compileToDnnf(f);
    double expected = bruteForceWmc(f, w);
    EXPECT_NEAR(g.wmc(w), expected, 1e-9 * std::max(1.0, expected));
}

TEST_P(DnnfSweep, IndicatorWeightsDetectModels)
{
    auto p = GetParam();
    Rng rng(p.seed + 2000);
    CnfFormula f = randomKSat(rng, p.vars, p.clauses, p.k);
    DnnfGraph g = compileToDnnf(f);
    for (int trial = 0; trial < 8; ++trial) {
        std::vector<bool> x(p.vars);
        for (uint32_t v = 0; v < p.vars; ++v)
            x[v] = rng.bernoulli(0.5);
        double wmc = g.wmc(LitWeights::indicator(x));
        EXPECT_DOUBLE_EQ(wmc, f.evaluate(x) ? 1.0 : 0.0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DnnfSweep,
    ::testing::Values(DnnfSweepParam{6, 10, 2, 1},
                      DnnfSweepParam{8, 20, 3, 2},
                      DnnfSweepParam{10, 30, 3, 3},
                      DnnfSweepParam{12, 40, 3, 4},
                      DnnfSweepParam{12, 55, 3, 5}, // near-critical ratio
                      DnnfSweepParam{14, 40, 4, 6},
                      DnnfSweepParam{16, 56, 3, 7},
                      DnnfSweepParam{10, 60, 3, 8}, // oversatisfied: UNSAT
                      DnnfSweepParam{18, 50, 5, 9},
                      DnnfSweepParam{20, 60, 3, 10}));

TEST(Dnnf, ConditionalMarginalMatchesEnumeration)
{
    Rng rng(31);
    CnfFormula f = plantedKSat(rng, 10, 25, 3);
    LitWeights w = LitWeights::random(rng, 10);
    double z = bruteForceWmc(f, w);
    ASSERT_GT(z, 0.0);
    for (uint32_t var = 0; var < 10; ++var) {
        // Enumerate P(var = true | f).
        CnfFormula g = f;
        g.addClause({int64_t(var) + 1});
        double expected = bruteForceWmc(g, w) / z;
        EXPECT_NEAR(conditionalMarginal(f, w, var), expected, 1e-9);
    }
}

TEST(Dnnf, ConditionalMarginalOfUnsatIsMinusOne)
{
    CnfFormula f(2);
    f.addClause({1});
    f.addClause({-1});
    EXPECT_EQ(conditionalMarginal(f, LitWeights::uniform(2), 0), -1.0);
}

TEST(Dnnf, PigeonholeIsUnsat)
{
    DnnfGraph g = compileToDnnf(pigeonhole(3));
    EXPECT_DOUBLE_EQ(g.modelCount(), 0.0);
}

// ---------------------------------------------------------------------------
// d-DNNF -> probabilistic circuit (pc/from_logic)
// ---------------------------------------------------------------------------

TEST(CnfToCircuit, CircuitIsSmoothAndDecomposable)
{
    Rng rng(41);
    CnfFormula f = plantedKSat(rng, 9, 22, 3);
    pc::Circuit c = pc::compileCnf(f);
    EXPECT_TRUE(c.isSmoothAndDecomposable());
}

TEST(CnfToCircuit, LikelihoodIsNormalizedConditionedWeight)
{
    Rng rng(42);
    for (int trial = 0; trial < 6; ++trial) {
        CnfFormula f = plantedKSat(rng, 8, 18, 3);
        LitWeights w = LitWeights::random(rng, 8);
        double z = bruteForceWmc(f, w);
        ASSERT_GT(z, 0.0);
        pc::Circuit c = pc::compileCnf(f, w);
        for (uint64_t bits = 0; bits < (1u << 8); ++bits) {
            std::vector<bool> x(8);
            pc::Assignment a(8);
            double weight = 1.0;
            for (uint32_t v = 0; v < 8; ++v) {
                x[v] = (bits >> v) & 1;
                a[v] = x[v] ? 1 : 0;
                weight *= x[v] ? w.pos[v] : w.neg[v];
            }
            double expected = f.evaluate(x) ? weight / z : 0.0;
            double got = std::exp(c.logLikelihood(a));
            if (expected == 0.0)
                EXPECT_LT(got, 1e-12);
            else
                EXPECT_NEAR(got, expected, 1e-9 * expected);
        }
    }
}

TEST(CnfToCircuit, MarginalsAgreeWithWmcRatios)
{
    Rng rng(43);
    CnfFormula f = plantedKSat(rng, 10, 24, 3);
    LitWeights w = LitWeights::random(rng, 10);
    pc::Circuit c = pc::compileCnf(f, w);
    DnnfGraph g = compileToDnnf(f);
    double z = g.wmc(w);
    for (uint32_t var = 0; var < 10; ++var) {
        pc::Assignment a(10, pc::kMissing);
        a[var] = 1;
        double circuit_marginal = std::exp(c.logLikelihood(a));
        LitWeights cond = w;
        cond.neg[var] = 0.0;
        EXPECT_NEAR(circuit_marginal, g.wmc(cond) / z, 1e-9);
    }
}

TEST(CnfToCircuit, TautologyYieldsProductOfMarginals)
{
    CnfFormula f(4); // no constraints
    LitWeights w = LitWeights::uniform(4);
    pc::Circuit c = pc::compileCnf(f, w);
    pc::Assignment a(4, 1);
    EXPECT_NEAR(std::exp(c.logLikelihood(a)), 1.0 / 16.0, 1e-12);
}

TEST(CnfToCircuit, FreeVariablesGetUniformTreatment)
{
    // Variable 2 is mentioned nowhere; the circuit must still cover it.
    CnfFormula f(3);
    f.addClause({1, 2});
    pc::Circuit c = pc::compileCnf(f);
    EXPECT_TRUE(c.isSmoothAndDecomposable());
    pc::Assignment a(3, pc::kMissing);
    a[2] = 1;
    EXPECT_NEAR(std::exp(c.logLikelihood(a)), 0.5, 1e-12);
}

// ---------------------------------------------------------------------------
// Empty clauses
// ---------------------------------------------------------------------------

namespace {

/** DIMACS text whose first clause is empty (a bare `0`): 18 bytes. */
const char kEmptyClauseDimacs[] = "p cnf 2 2\n0\n1 2 0\n";

} // namespace

TEST(Dnnf, EmptyClauseCompilesToFalse)
{
    const CnfFormula parsed = CnfFormula::parseDimacs(kEmptyClauseDimacs);
    ASSERT_EQ(parsed.numClauses(), 2u);
    ASSERT_TRUE(parsed.clause(0).empty());

    // An empty clause anywhere, with or without unit clauses beside it.
    CnfFormula with_units(3);
    with_units.addClause({1, 2});
    with_units.addClause(Clause{});
    with_units.addClause({3});
    const CnfFormula *formulas[] = {&parsed, &with_units};
    for (const CnfFormula *f : formulas) {
        DnnfGraph g = compileToDnnf(*f);
        g.validate();
        EXPECT_EQ(g.node(g.root()).type, NnfType::False);
        EXPECT_EQ(g.numNodes(), 2u); // the True and False constants
        EXPECT_DOUBLE_EQ(g.modelCount(), 0.0);
        const DnnfStats &st = g.stats();
        EXPECT_EQ(st.decisions, 0u);
        EXPECT_EQ(st.cacheHits, 0u);
        EXPECT_EQ(st.cacheEntries, 0u);
        EXPECT_EQ(st.componentSplits, 0u);
        EXPECT_EQ(st.unitPropagations, 0u);
    }
}

TEST(CnfToFlat, EmptyClauseLowersToMinusInfinity)
{
    const CnfFormula f = CnfFormula::parseDimacs(kEmptyClauseDimacs);
    const double log_wmc = pc::flatLogWmc(pc::compileCnfFlat(f));
    EXPECT_EQ(log_wmc, -std::numeric_limits<double>::infinity());
}

namespace {

/** Run `reason_cli count` on `dimacs` written to a temp file `name`;
 *  returns stdout and stderr, and sets *exit_code. */
std::string
runCliCount(const std::string &name, const std::string &dimacs,
            int *exit_code)
{
    const std::string path = ::testing::TempDir() + name;
    {
        std::ofstream out(path, std::ios::binary);
        out << dimacs;
    }
    const std::string text = testutil::runCommand(
        "'" + std::string(REASON_CLI_PATH) + "' count '" + path + "' 2>&1",
        exit_code);
    std::remove(path.c_str());
    return text;
}

} // namespace

TEST(ReasonCli, CountOfEmptyClauseFormulaIsZero)
{
    int exit_code = 0;
    const std::string text =
        runCliCount("empty_clause.cnf", kEmptyClauseDimacs, &exit_code);
    EXPECT_EQ(exit_code, 0) << text;
    EXPECT_NE(text.find("models: 0 of 2^2"), std::string::npos) << text;
    EXPECT_NE(text.find("0 unit propagations"), std::string::npos) << text;
    EXPECT_NE(text.find("0 cache entries"), std::string::npos) << text;
}

// ---------------------------------------------------------------------------
// DIMACS variable range
// ---------------------------------------------------------------------------

TEST(Dimacs, LargestVariableRoundTrips)
{
    const CnfFormula f =
        CnfFormula::parseDimacs("p cnf 1 1\n2147483647 -2147483647 0\n");
    EXPECT_EQ(f.numVars(), uint32_t(kMaxDimacsVar));
    ASSERT_EQ(f.numClauses(), 1u);
    EXPECT_EQ(f.clause(0)[0].toDimacs(), kMaxDimacsVar);
    EXPECT_EQ(f.clause(0)[1].toDimacs(), -kMaxDimacsVar);
}

TEST(ReasonCli, CountRejectsOutOfRangeDimacsVariables)
{
    // Each would alias a small variable (or negate INT64_MIN) if the
    // literal were truncated to a 31-bit variable index.
    const struct
    {
        const char *name;
        const char *dimacs;
    } cases[] = {
        {"alias_positive.cnf", "p cnf 1 1\n4294967297 0\n"},
        {"alias_tautology.cnf", "p cnf 2 1\n-4294967298 2 0\n"},
        {"first_past_max.cnf", "p cnf 1 1\n2147483648 0\n"},
        {"int64_min.cnf", "p cnf 1 1\n-9223372036854775808 0\n"},
        {"header_past_max.cnf", "p cnf 2147483648 1\n1 0\n"},
        {"header_negative.cnf", "p cnf -1 1\n1 0\n"},
    };
    for (const auto &c : cases) {
        int exit_code = 0;
        const std::string text = runCliCount(c.name, c.dimacs, &exit_code);
        // Nonzero through fatal(), never a clean exit and never an
        // abort (134 from a shell, negative for a signal).
        EXPECT_GT(exit_code, 0) << c.name << "\n" << text;
        EXPECT_NE(exit_code, 134) << c.name << "\n" << text;
        EXPECT_EQ(text.find("models:"), std::string::npos)
            << c.name << "\n" << text;
    }
}

// ---------------------------------------------------------------------------
// Graph identity
// ---------------------------------------------------------------------------

namespace {

/** splitmix64: this test's own generator, so the pinned formulas depend
 *  on no library code. */
struct SplitMix
{
    uint64_t state;

    uint64_t next()
    {
        uint64_t z = (state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
    uint32_t below(uint32_t n) { return uint32_t(next() % n); }
};

/**
 * Cell `cell` of a 42-cell 3-CNF grid: 28-40 variables in steps of 2,
 * clause ratio 2, 2.5 and 3, random (cells 0-20) and planted (21-41,
 * every clause satisfied by a hidden assignment).  Each clause has three
 * distinct variables.
 */
CnfFormula
gridFormula(uint32_t cell)
{
    SplitMix rng{4200 + cell};
    const uint32_t vars = 28 + 2 * (cell % 7);
    const double ratio = 2.0 + 0.5 * double((cell / 7) % 3);
    const bool planted = cell >= 21;
    const auto clauses = uint32_t(std::lround(ratio * vars));
    std::vector<bool> hidden(vars);
    for (uint32_t v = 0; v < vars; ++v)
        hidden[v] = rng.next() & 1;
    CnfFormula f(vars);
    for (uint32_t c = 0; c < clauses; ++c) {
        uint32_t var[3];
        for (uint32_t k = 0; k < 3; ++k) {
            bool fresh;
            do {
                var[k] = rng.below(vars);
                fresh = true;
                for (uint32_t j = 0; j < k; ++j)
                    fresh = fresh && var[j] != var[k];
            } while (!fresh);
        }
        Clause clause;
        bool satisfied;
        do {
            clause.clear();
            satisfied = false;
            for (uint32_t v : var) {
                const bool neg = rng.next() & 1;
                clause.push_back(Lit::make(v, neg));
                satisfied = satisfied || hidden[v] != neg;
            }
        } while (planted && !satisfied);
        f.addClause(clause);
    }
    return f;
}

/**
 * Mixed-length formula: clauses of 1-6 literals over 10-30 variables,
 * with repeated literals, tautologies and duplicate clauses mixed in.
 */
CnfFormula
mixedFormula(uint32_t index)
{
    SplitMix rng{9100 + index};
    const uint32_t vars = 10 + rng.below(21);
    const uint32_t clauses = vars + rng.below(2 * vars);
    CnfFormula f(vars);
    Clause previous;
    for (uint32_t c = 0; c < clauses; ++c) {
        if (!previous.empty() && rng.below(8) == 0) {
            f.addClause(previous); // duplicate clause
            continue;
        }
        const uint32_t len = rng.below(10) == 0 ? 1 : 2 + rng.below(5);
        Clause clause;
        for (uint32_t k = 0; k < len; ++k)
            clause.push_back(Lit::make(rng.below(vars), rng.next() & 1));
        if (rng.below(10) == 0)
            clause.push_back(~clause[0]); // tautology
        f.addClause(clause);
        previous = clause;
    }
    return f;
}

/** 64-bit FNV-1a of a string. */
uint64_t
fnv1a(const std::string &text)
{
    uint64_t h = 1469598103934665603ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

/** The pinned identity of one compiled graph. */
struct GraphPin
{
    uint64_t c2dFnv;
    uint64_t decisions;
    uint64_t cacheHits;
    uint64_t cacheEntries;
    uint64_t componentSplits;
    uint64_t unitPropagations;
};

/** A pin as one initializer line, so a mismatch prints a ready row. */
std::string
pinText(const GraphPin &p)
{
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "{0x%016" PRIx64 "ull, %" PRIu64 ", %" PRIu64 ", %" PRIu64
                  ", %" PRIu64 ", %" PRIu64 "},",
                  p.c2dFnv, p.decisions, p.cacheHits, p.cacheEntries,
                  p.componentSplits, p.unitPropagations);
    return buf;
}

GraphPin
pinOf(const CnfFormula &f)
{
    const DnnfGraph g = compileToDnnf(f);
    const DnnfStats &st = g.stats();
    return {fnv1a(toC2dFormat(g)), st.decisions,      st.cacheHits,
            st.cacheEntries,       st.componentSplits, st.unitPropagations};
}

// Captured by running the compiler as it was before its flat-buffer
// rewrite (per-clause vectors, unordered_map cache) on these formulas.
// The rewrite must reproduce every graph node for node.
const GraphPin kGridPins[42] = {
    {0xb917d345ca3900aaull, 1026, 864, 1387, 361, 2608},
    {0x7e5dd6ca17abcc66ull, 661, 541, 915, 254, 1982},
    {0x3446ebd2498d5859ull, 2179, 2411, 3183, 1004, 5803},
    {0xc515cb7ba79d6c3dull, 2053, 1952, 2926, 873, 6079},
    {0x738b5d953296a796ull, 1298, 1515, 1987, 689, 4046},
    {0x5ee8c48d2ca4997dull, 4953, 5938, 7407, 2454, 13514},
    {0x436b524f768a6885ull, 7721, 10335, 12073, 4352, 21538},
    {0x14c4fa59ff24e217ull, 297, 127, 371, 74, 931},
    {0xe5ddc9514c88678bull, 642, 344, 797, 155, 2120},
    {0xe48f91d16a3ac1b9ull, 682, 422, 874, 192, 2364},
    {0x717d0937606046f7ull, 454, 226, 577, 123, 2076},
    {0x0950defc5f4847f5ull, 2156, 2032, 3059, 903, 7454},
    {0x219497e00738af7cull, 994, 768, 1378, 384, 3750},
    {0xc7c0f3626b2e80a1ull, 6425, 7177, 9369, 2944, 20166},
    {0xeaab42aadd51cf48ull, 161, 20, 184, 23, 635},
    {0x0ae33f73e9da3861ull, 259, 63, 292, 33, 1080},
    {0x699ba09a024b2351ull, 778, 502, 1002, 224, 2501},
    {0xf7be050adf576650ull, 172, 48, 200, 28, 815},
    {0x54bbb9f4faec8b0dull, 527, 242, 639, 112, 2107},
    {0x07d86c7b6be52df5ull, 198, 50, 227, 29, 1364},
    {0x09ace71d62422aabull, 515, 270, 639, 124, 2497},
    {0xd2f636713c43873bull, 446, 242, 564, 118, 1328},
    {0x6f3d962d3b176891ull, 947, 1021, 1399, 452, 2774},
    {0xf057d426a19c2579ull, 1742, 1735, 2535, 793, 4556},
    {0xd14e24076417fdc6ull, 2566, 2819, 3782, 1216, 6811},
    {0x7fc723af4ed82952ull, 3111, 3401, 4621, 1510, 8132},
    {0xff69a5e63147f7edull, 2627, 2788, 3837, 1210, 7778},
    {0x17ddf901de26b422ull, 2906, 3977, 4725, 1819, 7801},
    {0xba9a19093671c555ull, 349, 188, 436, 87, 1219},
    {0xa45b5557e0f66c32ull, 774, 535, 1022, 248, 2363},
    {0xfd7ee12c1ca04577ull, 690, 417, 901, 211, 2312},
    {0x6072ec4d25921905ull, 698, 345, 860, 162, 2879},
    {0x2a04c4a2d344385dull, 3006, 2843, 4179, 1173, 10335},
    {0x53f2f73da70a1df5ull, 1638, 1601, 2347, 709, 5084},
    {0xf8caf364cfab1241ull, 2386, 2445, 3422, 1036, 7620},
    {0x8e424842c1b81e98ull, 234, 69, 269, 35, 875},
    {0xb6ff7dcd851d9ea0ull, 100, 18, 112, 12, 620},
    {0xc389e2a0c629a5ceull, 595, 260, 720, 125, 2340},
    {0x7c707cdefec82e5cull, 462, 179, 553, 91, 1926},
    {0x39394862e9755cfaull, 258, 88, 309, 51, 1235},
    {0x2fb08f5da1f7f951ull, 2107, 1788, 2904, 797, 6857},
    {0xe86db4b4f6af85e2ull, 475, 187, 571, 96, 2585},
};

const GraphPin kMixedPins[24] = {
    {0x78ba14e253ea77f2ull, 12, 6, 17, 5, 11},
    {0xbd0ffc02bc6fcf29ull, 81, 41, 104, 23, 110},
    {0x7c740f4742b57a7cull, 0, 0, 0, 0, 2},
    {0x35cad29ed5a87038ull, 57, 19, 74, 17, 63},
    {0x976bde83ebbbee79ull, 0, 0, 0, 0, 0},
    {0x794270cec6d52b00ull, 6, 0, 6, 0, 13},
    {0x696fc3e40b26e6f2ull, 34, 10, 40, 6, 48},
    {0x055707bb86e25414ull, 223, 128, 293, 70, 249},
    {0xa0f576e2e12b838bull, 289, 220, 394, 105, 290},
    {0x7fc7dff60849d42bull, 9, 1, 10, 1, 6},
    {0x537adc808a18eb6full, 180, 99, 235, 55, 355},
    {0x7b9e99738fc4bffdull, 233, 161, 319, 86, 235},
    {0xec183bdb5632d70full, 25, 2, 30, 5, 45},
    {0x1d0f738ee1867dbcull, 15, 1, 16, 1, 14},
    {0x47a898c2467007b0ull, 15, 1, 17, 2, 15},
    {0xd0035ef37aadd950ull, 100, 48, 124, 24, 119},
    {0x4ec135196c156c46ull, 13, 5, 19, 6, 20},
    {0xa3525c23b5447477ull, 20, 4, 25, 5, 37},
    {0x87bd9a150422c3d5ull, 9, 0, 9, 0, 19},
    {0x3ea436e21122ecc5ull, 9, 0, 10, 1, 11},
    {0x670433319d3e0d50ull, 8, 1, 8, 0, 11},
    {0x01da3fd1954bb2f8ull, 25, 5, 31, 6, 35},
    {0x12f050f589e9c199ull, 80, 59, 106, 26, 89},
    {0x3e551321fb84a0c5ull, 15, 3, 18, 3, 30},
};

} // namespace

TEST(Compiler, GraphIdenticalToSeedCompiler)
{
    for (uint32_t cell = 0; cell < 42; ++cell)
        EXPECT_EQ(pinText(pinOf(gridFormula(cell))),
                  pinText(kGridPins[cell]))
            << "grid cell " << cell;
    for (uint32_t i = 0; i < 24; ++i)
        EXPECT_EQ(pinText(pinOf(mixedFormula(i))), pinText(kMixedPins[i]))
            << "mixed formula " << i;
}
