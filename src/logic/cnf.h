/**
 * @file
 * Propositional CNF representation: literals, clauses, formulas, DIMACS
 * input/output, and random instance generation used across the repository.
 *
 * Encoding follows the MiniSat convention: a variable is an index in
 * [0, numVars); a literal packs variable and sign as 2*var + (negated?1:0).
 */

#ifndef REASON_LOGIC_CNF_H
#define REASON_LOGIC_CNF_H

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace reason {

class Rng;

namespace logic {

/**
 * Largest DIMACS variable number (1-based) a literal can hold: a Lit
 * code keeps the 0-based variable in its upper 31 bits.
 */
inline constexpr int64_t kMaxDimacsVar = (int64_t(1) << 31) - 1;

/** Packed literal: 2*var for positive, 2*var+1 for negated. */
class Lit
{
  public:
    Lit() : code_(~0u) {}

    /** Build from variable index and sign (sign=true means negated). */
    static Lit make(uint32_t var, bool negated)
    {
        return Lit((var << 1) | (negated ? 1u : 0u));
    }

    /**
     * Build from a DIMACS-style signed integer (1-based, nonzero, with
     * |d| <= kMaxDimacsVar).
     */
    static Lit fromDimacs(int64_t d);

    uint32_t var() const { return code_ >> 1; }
    bool negated() const { return code_ & 1u; }
    uint32_t code() const { return code_; }
    bool valid() const { return code_ != ~0u; }

    /** Complementary literal. */
    Lit operator~() const { return Lit(code_ ^ 1u); }

    bool operator==(const Lit &o) const { return code_ == o.code_; }
    bool operator!=(const Lit &o) const { return code_ != o.code_; }
    bool operator<(const Lit &o) const { return code_ < o.code_; }

    /** DIMACS-style signed integer (1-based). */
    int64_t toDimacs() const;

    std::string toString() const;

  private:
    explicit Lit(uint32_t code) : code_(code) {}
    uint32_t code_;
};

/** Truth value of a variable or literal in a partial assignment. */
enum class LBool : uint8_t { False = 0, True = 1, Undef = 2 };

/** Negate an LBool, leaving Undef fixed. */
inline LBool
negate(LBool v)
{
    if (v == LBool::Undef)
        return v;
    return v == LBool::True ? LBool::False : LBool::True;
}

/** A disjunction of literals. */
using Clause = std::vector<Lit>;

/**
 * CNF formula: conjunction of clauses over numVars variables.
 */
class CnfFormula
{
  public:
    CnfFormula() = default;
    explicit CnfFormula(uint32_t num_vars) : numVars_(num_vars) {}

    uint32_t numVars() const { return numVars_; }
    size_t numClauses() const { return clauses_.size(); }

    /** Total number of literal occurrences across all clauses. */
    size_t numLiterals() const;

    const std::vector<Clause> &clauses() const { return clauses_; }
    const Clause &clause(size_t i) const { return clauses_.at(i); }

    /** Ensure at least n variables exist. */
    void ensureVars(uint32_t n);

    /** Add a clause; extends the variable count if needed. */
    void addClause(Clause c);

    /** Convenience for small clauses. */
    void addClause(std::initializer_list<int64_t> dimacs_lits);

    /**
     * Evaluate under a complete assignment (index = var).
     * @return true iff every clause has a satisfied literal.
     */
    bool evaluate(const std::vector<bool> &assignment) const;

    /**
     * Exhaustive satisfiability check, for testing only.
     * @param model receives a satisfying assignment when SAT.
     * @return true iff satisfiable.  Requires numVars() <= 24.
     */
    bool bruteForceSat(std::vector<bool> *model = nullptr) const;

    /** Count satisfying assignments exhaustively (numVars() <= 24). */
    uint64_t bruteForceCountModels() const;

    /** Serialize to DIMACS CNF format. */
    std::string toDimacs() const;

    /**
     * Parse DIMACS CNF text; fatal() on malformed input, including a
     * literal or header variable count above kMaxDimacsVar.
     */
    static CnfFormula parseDimacs(const std::string &text);

  private:
    uint32_t numVars_ = 0;
    std::vector<Clause> clauses_;
};

/**
 * Random k-SAT instance with the given clause/variable ratio.
 * Clauses have distinct variables; duplicate clauses are permitted, as in
 * the standard fixed-clause-length model.
 */
CnfFormula randomKSat(Rng &rng, uint32_t num_vars, uint32_t num_clauses,
                      uint32_t k = 3);

/**
 * Random satisfiable k-SAT instance: a hidden assignment is drawn first and
 * every clause is forced to contain at least one literal it satisfies.
 */
CnfFormula plantedKSat(Rng &rng, uint32_t num_vars, uint32_t num_clauses,
                       uint32_t k = 3,
                       std::vector<bool> *hidden = nullptr);

/**
 * Planted k-SAT against a *given* hidden assignment, so multiple clause
 * groups can be planted consistently into one satisfiable formula.
 */
CnfFormula plantedKSatWithModel(Rng &rng, const std::vector<bool> &model,
                                uint32_t num_clauses, uint32_t k);

/**
 * Pigeonhole principle instance PHP(holes+1, holes): unsatisfiable and
 * exponentially hard for resolution; exercises conflict analysis.
 */
CnfFormula pigeonhole(uint32_t holes);

} // namespace logic
} // namespace reason

#endif // REASON_LOGIC_CNF_H
