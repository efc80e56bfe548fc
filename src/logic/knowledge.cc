#include "logic/knowledge.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/logging.h"
#include "util/rng.h"

namespace reason {
namespace logic {

const char *
nnfTypeName(NnfType type)
{
    switch (type) {
      case NnfType::True: return "true";
      case NnfType::False: return "false";
      case NnfType::Lit: return "lit";
      case NnfType::And: return "and";
      case NnfType::Or: return "or";
    }
    return "?";
}

LitWeights
LitWeights::uniform(uint32_t num_vars)
{
    LitWeights w;
    w.pos.assign(num_vars, 0.5);
    w.neg.assign(num_vars, 0.5);
    return w;
}

LitWeights
LitWeights::indicator(const std::vector<bool> &assignment)
{
    LitWeights w;
    w.pos.resize(assignment.size());
    w.neg.resize(assignment.size());
    for (size_t v = 0; v < assignment.size(); ++v) {
        w.pos[v] = assignment[v] ? 1.0 : 0.0;
        w.neg[v] = assignment[v] ? 0.0 : 1.0;
    }
    return w;
}

LitWeights
LitWeights::random(Rng &rng, uint32_t num_vars)
{
    LitWeights w;
    w.pos.resize(num_vars);
    w.neg.resize(num_vars);
    for (uint32_t v = 0; v < num_vars; ++v) {
        double p = 0.1 + 0.8 * rng.uniform01();
        w.pos[v] = p;
        w.neg[v] = 1.0 - p;
    }
    return w;
}

// --------------------------------------------------------------------------
// DnnfGraph queries
// --------------------------------------------------------------------------

size_t
DnnfGraph::numEdges() const
{
    size_t n = 0;
    for (const auto &node : nodes_)
        n += node.children.size();
    return n;
}

std::vector<std::vector<uint32_t>>
DnnfGraph::scopes() const
{
    std::vector<std::vector<uint32_t>> scope(nodes_.size());
    for (size_t i = 0; i < nodes_.size(); ++i) {
        const NnfNode &node = nodes_[i];
        switch (node.type) {
          case NnfType::True:
          case NnfType::False:
            break;
          case NnfType::Lit:
            scope[i].push_back(node.lit.var());
            break;
          case NnfType::And:
          case NnfType::Or:
            for (NnfId c : node.children) {
                scope[i].insert(scope[i].end(), scope[c].begin(),
                                scope[c].end());
            }
            if (node.type == NnfType::Or)
                scope[i].push_back(node.decisionVar);
            std::sort(scope[i].begin(), scope[i].end());
            scope[i].erase(std::unique(scope[i].begin(), scope[i].end()),
                           scope[i].end());
            break;
        }
    }
    return scope;
}

std::vector<double>
DnnfGraph::weightedValues(const LitWeights &weights) const
{
    const std::vector<double> &pos = weights.pos;
    const std::vector<double> &neg = weights.neg;
    reasonAssert(pos.size() >= numVars_ && neg.size() >= numVars_,
                 "literal weights must cover all formula variables");
    auto scope = scopes();
    std::vector<double> value(nodes_.size(), 0.0);

    // Product of (pos+neg) over scope(parent) minus scope(child).
    auto gapFactor = [&](const std::vector<uint32_t> &parent,
                         const std::vector<uint32_t> &child) {
        double f = 1.0;
        size_t ci = 0;
        for (uint32_t v : parent) {
            while (ci < child.size() && child[ci] < v)
                ++ci;
            if (ci < child.size() && child[ci] == v)
                continue;
            f *= pos[v] + neg[v];
        }
        return f;
    };

    for (size_t i = 0; i < nodes_.size(); ++i) {
        const NnfNode &node = nodes_[i];
        switch (node.type) {
          case NnfType::True:
            value[i] = 1.0;
            break;
          case NnfType::False:
            value[i] = 0.0;
            break;
          case NnfType::Lit:
            value[i] = node.lit.negated() ? neg[node.lit.var()]
                                          : pos[node.lit.var()];
            break;
          case NnfType::And: {
            double v = 1.0;
            for (NnfId c : node.children)
                v *= value[c];
            value[i] = v;
            break;
          }
          case NnfType::Or: {
            double v = 0.0;
            for (NnfId c : node.children)
                v += value[c] * gapFactor(scope[i], scope[c]);
            value[i] = v;
            break;
          }
        }
    }
    return value;
}

namespace {

/** Total (pos+neg) factor for variables of [0,numVars) outside `scope`. */
double
freeVarFactor(const std::vector<double> &pos, const std::vector<double> &neg,
              const std::vector<uint32_t> &scope, uint32_t num_vars)
{
    double f = 1.0;
    size_t si = 0;
    for (uint32_t var = 0; var < num_vars; ++var) {
        while (si < scope.size() && scope[si] < var)
            ++si;
        if (si < scope.size() && scope[si] == var)
            continue;
        f *= pos[var] + neg[var];
    }
    return f;
}

} // namespace

double
DnnfGraph::modelCount() const
{
    LitWeights ones;
    ones.pos.assign(numVars_, 1.0);
    ones.neg.assign(numVars_, 1.0);
    return wmc(ones);
}

double
DnnfGraph::wmc(const LitWeights &weights) const
{
    std::vector<double> value = weightedValues(weights);
    return value[root_] * freeVarFactor(weights.pos, weights.neg,
                                        scopes()[root_], numVars_);
}

bool
DnnfGraph::isModel(const std::vector<bool> &assignment) const
{
    reasonAssert(assignment.size() >= numVars_,
                 "assignment must cover all formula variables");
    std::vector<char> value(nodes_.size(), 0);
    for (size_t i = 0; i < nodes_.size(); ++i) {
        const NnfNode &node = nodes_[i];
        switch (node.type) {
          case NnfType::True:
            value[i] = 1;
            break;
          case NnfType::False:
            value[i] = 0;
            break;
          case NnfType::Lit:
            value[i] = assignment[node.lit.var()] != node.lit.negated();
            break;
          case NnfType::And: {
            char v = 1;
            for (NnfId c : node.children)
                v = char(v && value[c]);
            value[i] = v;
            break;
          }
          case NnfType::Or: {
            char v = 0;
            for (NnfId c : node.children)
                v = char(v || value[c]);
            value[i] = v;
            break;
          }
        }
    }
    return value[root_] != 0;
}

void
DnnfGraph::validate() const
{
    reasonAssert(root_ < nodes_.size(), "dnnf root out of range");
    auto scope = scopes();
    for (size_t i = 0; i < nodes_.size(); ++i) {
        const NnfNode &node = nodes_[i];
        for (NnfId c : node.children)
            reasonAssert(c < i, "dnnf children must precede parents");
        if (node.type == NnfType::Lit)
            reasonAssert(node.lit.var() < numVars_, "lit var out of range");
        if (node.type == NnfType::Or) {
            reasonAssert(node.children.size() == 2,
                         "decision Or must have exactly two children");
            reasonAssert(node.decisionVar < numVars_,
                         "decision var out of range");
        }
        if (node.type == NnfType::And) {
            // Decomposability: children scopes pairwise disjoint.
            std::vector<uint32_t> merged;
            size_t total = 0;
            for (NnfId c : node.children) {
                merged.insert(merged.end(), scope[c].begin(),
                              scope[c].end());
                total += scope[c].size();
            }
            std::sort(merged.begin(), merged.end());
            merged.erase(std::unique(merged.begin(), merged.end()),
                         merged.end());
            reasonAssert(merged.size() == total,
                         "And children must have disjoint scopes");
        }
    }
}

std::string
DnnfGraph::toString() const
{
    std::ostringstream os;
    os << "dnnf(" << numVars_ << " vars, " << nodes_.size() << " nodes)\n";
    for (size_t i = 0; i < nodes_.size(); ++i) {
        const NnfNode &node = nodes_[i];
        os << "  n" << i << ": " << nnfTypeName(node.type);
        if (node.type == NnfType::Lit)
            os << " " << node.lit.toString();
        if (node.type == NnfType::Or)
            os << " on x" << node.decisionVar;
        for (NnfId c : node.children)
            os << " n" << c;
        os << "\n";
    }
    return os.str();
}

DnnfGraph
DnnfGraph::fromNodes(std::vector<NnfNode> nodes, NnfId root,
                     uint32_t num_vars)
{
    DnnfGraph g;
    g.nodes_ = std::move(nodes);
    g.root_ = root;
    g.numVars_ = num_vars;
    g.validate();
    return g;
}

// --------------------------------------------------------------------------
// Compiler
// --------------------------------------------------------------------------

namespace {

/** FNV-1a over the words of a canonical residual key. */
uint64_t
hashKey(const uint32_t *key, size_t len)
{
    uint64_t h = 1469598103934665603ull;
    for (size_t i = 0; i < len; ++i) {
        h ^= key[i];
        h *= 1099511628211ull;
    }
    return h ^ (h >> 32);
}

/** Separator closing each clause of a canonical key (no literal code). */
constexpr uint32_t kKeySep = ~0u;
/** Component id of a variable not yet assigned one. */
constexpr uint32_t kNoGroup = ~0u;

} // namespace

/**
 * Top-down exhaustive-DPLL d-DNNF builder (single compilation run).
 *
 * A residual formula is a slice of two flat stacks: `lits_` holds literal
 * codes (each clause sorted ascending) and `offs_` clause boundaries, so
 * clause i of a residual based at `ob` is lits_[offs_[ob+i],
 * offs_[ob+i+1]).  A frame's children are pushed above it and popped on
 * return; unit propagation rewrites a residual in place.  Node ids being
 * collected (units, component parts) live on the `ids_` stack, and cache
 * keys in the `keys_` arena, so the recursion allocates only when a
 * stack outgrows its high-water mark.
 */
class DnnfCompiler
{
  public:
    explicit DnnfCompiler(const CnfFormula &formula)
    {
        const uint32_t num_vars = formula.numVars();
        graph_.numVars_ = num_vars;
        trueNode_ = addNode({NnfType::True, Lit(), 0, {}});
        falseNode_ = addNode({NnfType::False, Lit(), 0, {}});
        litNode_.assign(size_t(num_vars) * 2, kInvalidNnf);
        parent_.assign(num_vars, 0);
        count_.assign(num_vars, 0);
        group_.assign(num_vars, kNoGroup);
        packable_ = size_t(num_vars) * 2 < (1u << 21) - 1;

        // Initial residual: clauses sorted and deduplicated, tautologies
        // dropped.  An empty clause makes the formula unsatisfiable.
        offs_.push_back(0);
        for (const Clause &clause : formula.clauses()) {
            const size_t start = lits_.size();
            for (Lit l : clause)
                lits_.push_back(l.code());
            const auto first = lits_.begin() + ptrdiff_t(start);
            std::sort(first, lits_.end());
            lits_.erase(std::unique(first, lits_.end()), lits_.end());
            if (lits_.size() == start) {
                graph_.root_ = falseNode_;
                return;
            }
            bool tautology = false;
            for (size_t i = start; i + 1 < lits_.size(); ++i)
                if (lits_[i + 1] == (lits_[i] ^ 1u))
                    tautology = true;
            if (tautology)
                lits_.resize(start);
            else
                offs_.push_back(checkedOffset(lits_.size()));
        }
        graph_.root_ = compile(0, uint32_t(offs_.size() - 1));
        graph_.stats_.cacheEntries = cacheSize_;
    }

    DnnfGraph take() { return std::move(graph_); }

  private:
    /** One cache entry: a key slice of `keys_` and its compiled node. */
    struct CacheSlot
    {
        uint64_t hash = 0;
        size_t keyOff = 0;
        uint32_t keyLen = 0;
        NnfId id = kInvalidNnf;
    };

    /** A clause of the residual being keyed, with its sort prefix. */
    struct SortRow
    {
        uint64_t prefix;
        uint32_t clause;
    };

    /** A residual on the stacks: offsets base and clause count. */
    struct Frame
    {
        uint32_t ob;
        uint32_t nc;
    };

    static uint32_t checkedOffset(size_t n)
    {
        reasonAssert(n <= UINT32_MAX, "d-DNNF compiler stack overflow");
        return uint32_t(n);
    }

    NnfId addNode(NnfNode node)
    {
        graph_.nodes_.push_back(std::move(node));
        return NnfId(graph_.nodes_.size() - 1);
    }

    NnfId litNode(uint32_t code)
    {
        NnfId &slot = litNode_[code];
        if (slot == kInvalidNnf)
            slot = addNode({NnfType::Lit, Lit::make(code >> 1, code & 1u),
                            0, {}});
        return slot;
    }

    /**
     * And over ids_[base..), dropping True and short-circuiting False
     * (each is the compiler's one node of its type); pops the parts.
     */
    NnfId makeAnd(size_t base)
    {
        size_t kept = base;
        for (size_t i = base; i < ids_.size(); ++i) {
            const NnfId p = ids_[i];
            if (p == falseNode_) {
                ids_.resize(base);
                return falseNode_;
            }
            if (p != trueNode_)
                ids_[kept++] = p;
        }
        NnfId out = trueNode_;
        if (kept - base == 1)
            out = ids_[base];
        else if (kept - base > 1)
            out = addNode({NnfType::And, Lit(), 0,
                           std::vector<NnfId>(ids_.begin() + ptrdiff_t(base),
                                              ids_.begin() + ptrdiff_t(kept))});
        ids_.resize(base);
        return out;
    }

    /**
     * Apply literal `u` to the residual at (ob, nc), writing the reduct
     * as a residual at `dob` whose literals start at `dlit`.  The target
     * may be the source itself (in-place) or lie wholly above it.
     * @return false on an empty clause (contradiction); otherwise the
     * reduct's clause count goes to `out_nc` and the index of its first
     * unit clause (or `out_nc` if none) to `first_unit`.
     */
    bool reduce(uint32_t ob, uint32_t nc, uint32_t u, uint32_t dob,
                uint32_t dlit, uint32_t &out_nc, uint32_t &first_unit)
    {
        uint32_t *lits = lits_.data();
        const uint32_t *src = offs_.data() + ob;
        uint32_t *dst = offs_.data() + dob;
        const uint32_t var = u >> 1;
        uint32_t w = dlit;
        uint32_t r = src[0];
        uint32_t out = 0;
        first_unit = ~0u;
        dst[0] = dlit;
        for (uint32_t i = 0; i < nc; ++i) {
            const uint32_t end = src[i + 1];
            const uint32_t start = w;
            bool satisfied = false;
            for (; r < end; ++r) {
                const uint32_t x = lits[r];
                if ((x >> 1) == var) {
                    if (x == u) {
                        satisfied = true;
                        break;
                    }
                    continue; // the falsified literal ~u
                }
                lits[w++] = x;
            }
            r = end;
            if (satisfied) {
                w = start;
                continue;
            }
            if (w == start)
                return false;
            if (w - start == 1 && first_unit == ~0u)
                first_unit = out;
            dst[++out] = w;
        }
        out_nc = out;
        if (first_unit == ~0u)
            first_unit = out;
        return true;
    }

    /**
     * Unit-propagate to fixpoint, in place, always on the first unit
     * clause in residual order.  Pushes the implied literal nodes onto
     * ids_; @return false on contradiction.
     */
    bool propagate(uint32_t ob, uint32_t &nc)
    {
        const uint32_t *off = offs_.data() + ob;
        uint32_t unit = 0;
        while (unit < nc && off[unit + 1] - off[unit] != 1)
            ++unit;
        while (unit < nc) {
            const uint32_t u = lits_[offs_[ob + unit]];
            if (!reduce(ob, nc, u, ob, offs_[ob], nc, unit))
                return false;
            ids_.push_back(litNode(u));
            ++graph_.stats_.unitPropagations;
        }
        return true;
    }

    /**
     * Append the canonical key of a residual to keys_: its clauses in
     * lexicographic order, each closed by kKeySep.  Equal keys mean equal
     * clause multisets.
     */
    void appendKey(uint32_t ob, uint32_t nc)
    {
        const uint32_t *lits = lits_.data();
        const uint32_t *off = offs_.data() + ob;
        // Sort on the clause's first three literals packed in a word
        // (codes + 1, 0 past the end: the same order as comparing them
        // one by one), comparing further literals only on a tie.
        order_.resize(nc);
        for (uint32_t i = 0; i < nc; ++i) {
            uint64_t prefix = 0;
            if (packable_) {
                const uint32_t len = std::min(off[i + 1] - off[i], 3u);
                for (uint32_t k = 0; k < 3; ++k) {
                    prefix <<= 21;
                    if (k < len)
                        prefix |= lits[off[i] + k] + 1u;
                }
            }
            order_[i] = {prefix, i};
        }
        std::sort(order_.begin(), order_.end(),
                  [lits, off](const SortRow &a, const SortRow &b) {
                      if (a.prefix != b.prefix)
                          return a.prefix < b.prefix;
                      return std::lexicographical_compare(
                          lits + off[a.clause], lits + off[a.clause + 1],
                          lits + off[b.clause], lits + off[b.clause + 1]);
                  });
        for (const SortRow &row : order_) {
            keys_.insert(keys_.end(), lits + off[row.clause],
                         lits + off[row.clause + 1]);
            keys_.push_back(kKeySep);
        }
    }

    /** Cached node for the key keys_[off..off+len), or kInvalidNnf. */
    NnfId lookup(uint64_t hash, size_t off, uint32_t len) const
    {
        if (table_.empty())
            return kInvalidNnf;
        const size_t mask = table_.size() - 1;
        for (size_t i = hash & mask;; i = (i + 1) & mask) {
            const CacheSlot &slot = table_[i];
            if (slot.id == kInvalidNnf)
                return kInvalidNnf;
            if (slot.hash == hash && slot.keyLen == len &&
                std::equal(keys_.begin() + ptrdiff_t(off),
                           keys_.begin() + ptrdiff_t(off + len),
                           keys_.begin() + ptrdiff_t(slot.keyOff)))
                return slot.id;
        }
    }

    void insert(const CacheSlot &entry)
    {
        if (2 * (cacheSize_ + 1) > table_.size()) {
            std::vector<CacheSlot> old = std::move(table_);
            table_.assign(std::max<size_t>(64, 2 * old.size()), CacheSlot{});
            for (const CacheSlot &slot : old)
                if (slot.id != kInvalidNnf)
                    place(slot);
        }
        place(entry);
        ++cacheSize_;
    }

    /** Store a slot at the first free probe position of its hash. */
    void place(const CacheSlot &slot)
    {
        const size_t mask = table_.size() - 1;
        size_t i = slot.hash & mask;
        while (table_[i].id != kInvalidNnf)
            i = (i + 1) & mask;
        table_[i] = slot;
    }

    uint32_t find(uint32_t v)
    {
        while (parent_[v] != v) {
            parent_[v] = parent_[parent_[v]];
            v = parent_[v];
        }
        return v;
    }

    /**
     * Label each clause with its variable-connected component, numbered
     * in order of first appearance, and count variable occurrences for
     * pickBranchVar(); @return the number of components.
     */
    uint32_t components(uint32_t ob, uint32_t nc)
    {
        const uint32_t *lits = lits_.data();
        const uint32_t *off = offs_.data() + ob;
        for (uint32_t p = off[0]; p < off[nc]; ++p) {
            parent_[lits[p] >> 1] = lits[p] >> 1;
            count_[lits[p] >> 1] = 0;
        }
        for (uint32_t i = 0; i < nc; ++i) {
            const uint32_t first = find(lits[off[i]] >> 1);
            ++count_[lits[off[i]] >> 1];
            for (uint32_t p = off[i] + 1; p < off[i + 1]; ++p) {
                parent_[find(lits[p] >> 1)] = first;
                ++count_[lits[p] >> 1];
            }
        }
        clauseGroup_.resize(nc);
        uint32_t groups = 0;
        for (uint32_t i = 0; i < nc; ++i) {
            uint32_t &g = group_[find(lits[off[i]] >> 1)];
            if (g == kNoGroup)
                g = groups++;
            clauseGroup_[i] = g;
        }
        for (uint32_t i = 0; i < nc; ++i)
            group_[find(lits[off[i]] >> 1)] = kNoGroup;
        return groups;
    }

    /** Most frequently occurring variable, lowest index on ties, from
     *  the counts of the preceding components() call. */
    uint32_t pickBranchVar(uint32_t ob, uint32_t nc) const
    {
        uint32_t best_var = UINT32_MAX;
        uint32_t best = 0;
        for (uint32_t p = offs_[ob]; p < offs_[ob + nc]; ++p) {
            const uint32_t var = lits_[p] >> 1;
            const uint32_t c = count_[var];
            if (c > best || (c == best && var < best_var)) {
                best = c;
                best_var = var;
            }
        }
        return best_var;
    }

    /**
     * Copy each of `groups` components of the residual at (ob, nc) into
     * its own residual above the stacks' tops (clauses in residual
     * order), recording the frames on frames_.
     */
    void splitComponents(uint32_t ob, uint32_t nc, uint32_t groups)
    {
        groupClauses_.assign(groups, 0);
        groupLits_.assign(groups, 0);
        for (uint32_t i = 0; i < nc; ++i) {
            const uint32_t g = clauseGroup_[i];
            ++groupClauses_[g];
            groupLits_[g] += offs_[ob + i + 1] - offs_[ob + i];
        }
        // Lay out the frames; the group arrays become write cursors.
        size_t lit_at = lits_.size();
        size_t off_at = offs_.size();
        for (uint32_t g = 0; g < groups; ++g) {
            frames_.push_back({checkedOffset(off_at), groupClauses_[g]});
            const size_t lit_start = lit_at;
            lit_at += groupLits_[g];
            off_at += groupClauses_[g] + 1;
            groupClauses_[g] = frames_.back().ob;
            groupLits_[g] = checkedOffset(lit_start);
        }
        lits_.resize(lit_at);
        offs_.resize(checkedOffset(off_at));
        for (uint32_t g = 0; g < groups; ++g)
            offs_[groupClauses_[g]] = groupLits_[g];
        uint32_t *lits = lits_.data();
        for (uint32_t i = 0; i < nc; ++i) {
            const uint32_t g = clauseGroup_[i];
            uint32_t w = groupLits_[g];
            for (uint32_t p = offs_[ob + i]; p < offs_[ob + i + 1]; ++p)
                lits[w++] = lits[p];
            groupLits_[g] = w;
            offs_[++groupClauses_[g]] = w;
        }
    }

    NnfId compile(uint32_t ob, uint32_t nc)
    {
        const size_t unit_base = ids_.size();
        if (!propagate(ob, nc)) {
            ids_.resize(unit_base);
            return falseNode_;
        }
        if (nc == 0)
            return makeAnd(unit_base);

        const size_t key_off = keys_.size();
        appendKey(ob, nc);
        const uint32_t key_len = uint32_t(keys_.size() - key_off);
        const uint64_t hash = hashKey(keys_.data() + key_off, key_len);
        const NnfId hit = lookup(hash, key_off, key_len);
        if (hit != kInvalidNnf) {
            keys_.resize(key_off);
            ++graph_.stats_.cacheHits;
            ids_.push_back(hit);
            return makeAnd(unit_base);
        }

        const size_t lit_top = lits_.size();
        const size_t off_top = offs_.size();
        NnfId result = kInvalidNnf;
        const uint32_t groups = components(ob, nc);
        if (groups > 1) {
            ++graph_.stats_.componentSplits;
            const size_t frame_base = frames_.size();
            splitComponents(ob, nc, groups);
            const size_t part_base = ids_.size();
            for (uint32_t g = 0; g < groups; ++g) {
                const Frame sub = frames_[frame_base + g];
                const NnfId part = compile(sub.ob, sub.nc);
                ids_.push_back(part);
            }
            frames_.resize(frame_base);
            lits_.resize(lit_top);
            offs_.resize(off_top);
            result = makeAnd(part_base);
        } else {
            const uint32_t var = pickBranchVar(ob, nc);
            ++graph_.stats_.decisions;
            NnfId branch[2] = {falseNode_, falseNode_};
            for (uint32_t sign = 0; sign < 2; ++sign) {
                const uint32_t l = (var << 1) | sign;
                const uint32_t sub_ob = checkedOffset(off_top);
                offs_.resize(off_top + nc + 1);
                lits_.resize(lit_top + (offs_[ob + nc] - offs_[ob]));
                uint32_t sub_nc = 0, first_unit = 0;
                const bool alive =
                    reduce(ob, nc, l, sub_ob, checkedOffset(lit_top),
                           sub_nc, first_unit);
                if (alive) {
                    const NnfId lit = litNode(l);
                    const NnfId sub = compile(sub_ob, sub_nc);
                    if (sub == trueNode_)
                        branch[sign] = lit;
                    else if (sub != falseNode_)
                        branch[sign] =
                            addNode({NnfType::And, Lit(), 0, {lit, sub}});
                }
                lits_.resize(lit_top);
                offs_.resize(off_top);
            }
            if (branch[0] == falseNode_)
                result = branch[1];
            else if (branch[1] == falseNode_)
                result = branch[0];
            else
                result = addNode(
                    {NnfType::Or, Lit(), var, {branch[0], branch[1]}});
        }

        insert({hash, key_off, key_len, result});
        ids_.push_back(result);
        return makeAnd(unit_base);
    }

    DnnfGraph graph_;
    NnfId trueNode_ = kInvalidNnf;
    NnfId falseNode_ = kInvalidNnf;
    std::vector<NnfId> litNode_; // indexed by lit code
    /** Residual stacks: literal codes and clause boundaries. */
    std::vector<uint32_t> lits_;
    std::vector<uint32_t> offs_;
    /** Component frames awaiting compilation. */
    std::vector<Frame> frames_;
    /** Node ids collected by the frames on the recursion path. */
    std::vector<NnfId> ids_;
    /** Cache: open-addressed slots over keys held in the keys_ arena. */
    std::vector<CacheSlot> table_;
    std::vector<uint32_t> keys_;
    size_t cacheSize_ = 0;
    /** Var-indexed scratch: union-find parents, occurrence counts,
     *  component ids (kNoGroup between calls). */
    std::vector<uint32_t> parent_;
    std::vector<uint32_t> count_;
    std::vector<uint32_t> group_;
    /** Literal codes fit the 21-bit fields of a SortRow prefix. */
    bool packable_ = false;
    /** Per-call scratch, consumed before any recursion. */
    std::vector<SortRow> order_;
    std::vector<uint32_t> clauseGroup_;
    std::vector<uint32_t> groupClauses_;
    std::vector<uint32_t> groupLits_;
};

DnnfGraph
compileToDnnf(const CnfFormula &formula)
{
    DnnfCompiler compiler(formula);
    return compiler.take();
}

double
countModels(const CnfFormula &formula)
{
    return compileToDnnf(formula).modelCount();
}

double
weightedModelCount(const CnfFormula &formula, const LitWeights &weights)
{
    return compileToDnnf(formula).wmc(weights);
}

double
conditionalMarginal(const CnfFormula &formula, const LitWeights &weights,
                    uint32_t var)
{
    DnnfGraph graph = compileToDnnf(formula);
    double z = graph.wmc(weights);
    if (z <= 0.0)
        return -1.0;
    LitWeights conditioned = weights;
    conditioned.neg[var] = 0.0;
    return graph.wmc(conditioned) / z;
}

} // namespace logic
} // namespace reason
