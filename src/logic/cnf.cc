#include "logic/cnf.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "util/logging.h"
#include "util/rng.h"

namespace reason {
namespace logic {

Lit
Lit::fromDimacs(int64_t d)
{
    reasonAssert(d != 0, "DIMACS literal must be nonzero");
    reasonAssert(d >= -kMaxDimacsVar && d <= kMaxDimacsVar,
                 "DIMACS literal beyond the largest variable");
    uint32_t var = static_cast<uint32_t>((d > 0 ? d : -d) - 1);
    return make(var, d < 0);
}

int64_t
Lit::toDimacs() const
{
    int64_t v = static_cast<int64_t>(var()) + 1;
    return negated() ? -v : v;
}

std::string
Lit::toString() const
{
    return (negated() ? "~x" : "x") + std::to_string(var());
}

size_t
CnfFormula::numLiterals() const
{
    size_t n = 0;
    for (const auto &c : clauses_)
        n += c.size();
    return n;
}

void
CnfFormula::ensureVars(uint32_t n)
{
    numVars_ = std::max(numVars_, n);
}

void
CnfFormula::addClause(Clause c)
{
    for (const Lit &l : c)
        ensureVars(l.var() + 1);
    clauses_.push_back(std::move(c));
}

void
CnfFormula::addClause(std::initializer_list<int64_t> dimacs_lits)
{
    Clause c;
    c.reserve(dimacs_lits.size());
    for (int64_t d : dimacs_lits)
        c.push_back(Lit::fromDimacs(d));
    addClause(std::move(c));
}

bool
CnfFormula::evaluate(const std::vector<bool> &assignment) const
{
    reasonAssert(assignment.size() >= numVars_,
                 "assignment smaller than variable count");
    for (const auto &clause : clauses_) {
        bool sat = false;
        for (const Lit &l : clause) {
            if (assignment[l.var()] != l.negated()) {
                sat = true;
                break;
            }
        }
        if (!sat)
            return false;
    }
    return true;
}

bool
CnfFormula::bruteForceSat(std::vector<bool> *model) const
{
    reasonAssert(numVars_ <= 24, "brute force limited to 24 variables");
    std::vector<bool> assign(numVars_, false);
    uint64_t limit = uint64_t(1) << numVars_;
    for (uint64_t m = 0; m < limit; ++m) {
        for (uint32_t v = 0; v < numVars_; ++v)
            assign[v] = (m >> v) & 1;
        if (evaluate(assign)) {
            if (model)
                *model = assign;
            return true;
        }
    }
    return false;
}

uint64_t
CnfFormula::bruteForceCountModels() const
{
    reasonAssert(numVars_ <= 24, "brute force limited to 24 variables");
    std::vector<bool> assign(numVars_, false);
    uint64_t limit = uint64_t(1) << numVars_;
    uint64_t count = 0;
    for (uint64_t m = 0; m < limit; ++m) {
        for (uint32_t v = 0; v < numVars_; ++v)
            assign[v] = (m >> v) & 1;
        if (evaluate(assign))
            ++count;
    }
    return count;
}

std::string
CnfFormula::toDimacs() const
{
    std::ostringstream os;
    os << "p cnf " << numVars_ << " " << clauses_.size() << "\n";
    for (const auto &clause : clauses_) {
        for (const Lit &l : clause)
            os << l.toDimacs() << " ";
        os << "0\n";
    }
    return os.str();
}

CnfFormula
CnfFormula::parseDimacs(const std::string &text)
{
    std::istringstream is(text);
    std::string token;
    CnfFormula f;
    bool header_seen = false;
    Clause current;
    while (is >> token) {
        if (token == "c") {
            std::string rest;
            std::getline(is, rest);
            continue;
        }
        if (token == "p") {
            std::string kind;
            int64_t nv = 0;
            uint64_t nc = 0;
            if (!(is >> kind >> nv >> nc) || kind != "cnf")
                fatal("malformed DIMACS header");
            if (nv < 0 || nv > kMaxDimacsVar)
                fatal("DIMACS header declares %lld variables; the range "
                      "is 0..%lld",
                      (long long)nv, (long long)kMaxDimacsVar);
            f.ensureVars(uint32_t(nv));
            header_seen = true;
            continue;
        }
        int64_t d = 0;
        try {
            d = std::stoll(token);
        } catch (...) {
            fatal("malformed DIMACS token '%s'", token.c_str());
        }
        if (d < -kMaxDimacsVar || d > kMaxDimacsVar)
            fatal("DIMACS literal '%s' names a variable beyond %lld",
                  token.c_str(), (long long)kMaxDimacsVar);
        if (d == 0) {
            f.addClause(current);
            current.clear();
        } else {
            current.push_back(Lit::fromDimacs(d));
        }
    }
    if (!current.empty())
        f.addClause(current);
    if (!header_seen)
        warn("DIMACS input had no 'p cnf' header");
    return f;
}

CnfFormula
randomKSat(Rng &rng, uint32_t num_vars, uint32_t num_clauses, uint32_t k)
{
    reasonAssert(k >= 1 && k <= num_vars,
                 "clause width must be in [1, num_vars]");
    CnfFormula f(num_vars);
    for (uint32_t i = 0; i < num_clauses; ++i) {
        std::set<uint32_t> vars;
        while (vars.size() < k)
            vars.insert(
                static_cast<uint32_t>(rng.uniformInt(0, num_vars - 1)));
        Clause c;
        for (uint32_t v : vars)
            c.push_back(Lit::make(v, rng.bernoulli(0.5)));
        f.addClause(std::move(c));
    }
    return f;
}

CnfFormula
plantedKSat(Rng &rng, uint32_t num_vars, uint32_t num_clauses, uint32_t k,
            std::vector<bool> *hidden)
{
    std::vector<bool> model(num_vars);
    for (uint32_t v = 0; v < num_vars; ++v)
        model[v] = rng.bernoulli(0.5);
    CnfFormula f = plantedKSatWithModel(rng, model, num_clauses, k);
    if (hidden)
        *hidden = std::move(model);
    return f;
}

CnfFormula
plantedKSatWithModel(Rng &rng, const std::vector<bool> &model,
                     uint32_t num_clauses, uint32_t k)
{
    uint32_t num_vars = static_cast<uint32_t>(model.size());
    reasonAssert(k >= 1 && k <= num_vars,
                 "clause width must be in [1, num_vars]");
    CnfFormula f(num_vars);
    for (uint32_t i = 0; i < num_clauses; ++i) {
        std::set<uint32_t> vars;
        while (vars.size() < k)
            vars.insert(
                static_cast<uint32_t>(rng.uniformInt(0, num_vars - 1)));
        Clause c;
        for (uint32_t v : vars)
            c.push_back(Lit::make(v, rng.bernoulli(0.5)));
        // Force satisfaction under the hidden model: if no literal agrees,
        // flip one at random.
        bool sat = false;
        for (const Lit &l : c)
            sat |= (model[l.var()] != l.negated());
        if (!sat) {
            size_t idx = static_cast<size_t>(
                rng.uniformInt(0, static_cast<int64_t>(c.size()) - 1));
            c[idx] = ~c[idx];
        }
        f.addClause(std::move(c));
    }
    return f;
}

CnfFormula
pigeonhole(uint32_t holes)
{
    // Variables p(i, j): pigeon i sits in hole j; i in [0, holes], j in
    // [0, holes).  Clauses: every pigeon sits somewhere; no two pigeons
    // share a hole.
    uint32_t pigeons = holes + 1;
    auto var = [holes](uint32_t i, uint32_t j) { return i * holes + j; };
    CnfFormula f(pigeons * holes);
    for (uint32_t i = 0; i < pigeons; ++i) {
        Clause c;
        for (uint32_t j = 0; j < holes; ++j)
            c.push_back(Lit::make(var(i, j), false));
        f.addClause(std::move(c));
    }
    for (uint32_t j = 0; j < holes; ++j)
        for (uint32_t i1 = 0; i1 < pigeons; ++i1)
            for (uint32_t i2 = i1 + 1; i2 < pigeons; ++i2)
                f.addClause({Lit::make(var(i1, j), true),
                             Lit::make(var(i2, j), true)});
    return f;
}

} // namespace logic
} // namespace reason
