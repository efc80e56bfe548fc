#include "arch/symbolic.h"

#include <algorithm>
#include <array>

#include "arch/dram.h"
#include "util/logging.h"
#include "util/numeric.h"

namespace reason {
namespace arch {

using logic::CnfFormula;
using logic::LBool;
using logic::Lit;

BcpPipeline::BcpPipeline(const CnfFormula &formula,
                         const ArchConfig &config)
    : formula_(formula), config_(config),
      wl_(formula.numVars() * 2),
      sram_(config.sramBytes, config.sramBanks),
      fifo_(config.bcpFifoDepth),
      dma_(config.dmaLatencyCycles, 4, config.dmaBytesPerCycle())
{
    assigns_.assign(formula.numVars(), LBool::Undef);
    clauses_.reserve(formula.numClauses());
    clauseAddr_.reserve(formula.numClauses());
    uint64_t addr = 0;
    for (const auto &c : formula.clauses()) {
        uint32_t idx = static_cast<uint32_t>(clauses_.size());
        clauses_.push_back(c);
        // Clause database laid out densely in DRAM address space.
        clauseAddr_.push_back(addr);
        addr += clauseBytes(idx);
        if (c.size() >= 2) {
            watched_.push_back({c[0], c[1]});
            wl_.watch(c[0].code(), idx);
            wl_.watch(c[1].code(), idx);
        } else if (c.size() == 1) {
            watched_.push_back({c[0], c[0]});
            wl_.watch(c[0].code(), idx);
        } else {
            watched_.push_back({Lit(), Lit()});
        }
    }
    dram_.reset(new DramModel(config_));
    dma_.attachDram(dram_.get());
}

BcpPipeline::~BcpPipeline() = default;

size_t
BcpPipeline::clauseBytes(uint32_t idx) const
{
    return 8 + 4 * clauses_[idx].size();
}

LBool
BcpPipeline::litValue(Lit l) const
{
    LBool v = assigns_[l.var()];
    if (v == LBool::Undef)
        return v;
    return l.negated() ? logic::negate(v) : v;
}

void
BcpPipeline::assign(Lit l)
{
    reasonAssert(litValue(l) == LBool::Undef, "double assignment");
    assigns_[l.var()] = l.negated() ? LBool::False : LBool::True;
    trail_.push_back(l);
}

void
BcpPipeline::reset()
{
    for (Lit l : trail_)
        assigns_[l.var()] = LBool::Undef;
    trail_.clear();
    fifo_.flush();
}

void
BcpPipeline::processFalsified(Lit p, BcpResult &res, bool record_trace)
{
    // Traverse the watch list of p (clauses watching the now-false
    // literal p).  The list mutates as watches relocate, so iterate a
    // snapshot.
    wl_.recordTraversal(p.code());
    events_.inc("wl_lookups");
    now_ += 1; // head-pointer fetch
    std::vector<uint32_t> snapshot = wl_.list(p.code());
    for (uint32_t idx : snapshot) {
        // Clause data access: SRAM hit or DMA fetch.
        events_.inc("sram_accesses");
        now_ += 1;
        if (!sram_.access(idx, clauseBytes(idx))) {
            // Address-carrying fetch: with the DRAM model enabled the
            // completion cycle reflects row-buffer state and bank
            // timing at the clause's database address.
            uint64_t done =
                dma_.issueAt(now_, clauseAddr_[idx], clauseBytes(idx));
            events_.inc("dma_fetches");
            if (record_trace)
                res.trace.push_back(
                    {now_, "dma",
                     "miss clause C" + std::to_string(idx) +
                         ", fetch until T" + std::to_string(done)});
            // The FIFO keeps servicing; this clause's resolution
            // completes when the fetch lands.
            now_ = std::max(now_ + 1, done > now_ + 8 ? now_ + 8 : done);
            uint64_t overlap_end = done;
            if (overlap_end > now_)
                events_.inc("dma_overlapped_cycles",
                            overlap_end - now_);
        }

        auto &w = watched_[idx];
        Lit other = (w[0] == p) ? w[1] : w[0];
        if (litValue(other) == LBool::True)
            continue; // satisfied via blocker
        // Search for a replacement watch.
        const auto &cl = clauses_[idx];
        Lit replacement;
        for (const Lit &l : cl) {
            if (l == p || l == other)
                continue;
            if (litValue(l) != LBool::False) {
                replacement = l;
                break;
            }
        }
        events_.inc("clause_literal_scans", cl.size());
        if (replacement.valid()) {
            // Relocate the watch from p to the replacement literal.
            (w[0] == p ? w[0] : w[1]) = replacement;
            wl_.unwatch(p.code(), idx);
            wl_.watch(replacement.code(), idx);
            events_.inc("watch_moves");
            continue;
        }
        if (litValue(other) == LBool::Undef && other.valid() &&
            cl.size() >= 2 && other != p) {
            // Unit clause: implication discovered at a leaf, reduced to
            // the controller, queued in the FIFO.
            assign(other);
            res.implications.push_back(other);
            events_.inc("implications");
            now_ += 1;
            while (!fifo_.push(other.code())) {
                // Overflow: the leaf stalls while the controller drains
                // one queued implication per cycle, then retries.  The
                // drained entry's broadcast is what the stall cycle pays
                // for; the functional propagation order is unaffected
                // (decide() tracks it separately).
                ++now_;
                events_.inc("fifo_overflow_stalls");
                if (!fifo_.empty())
                    fifo_.pop();
            }
            if (record_trace)
                res.trace.push_back(
                    {now_, "reduce",
                     "implication " + other.toString() +
                         " from clause C" + std::to_string(idx)});
        } else if (litValue(other) == LBool::False ||
                   (cl.size() == 1 && litValue(cl[0]) == LBool::False)) {
            // Conflict: priority control - flush FIFO, cancel DMA.
            res.conflict = true;
            now_ += config_.reductionCycles();
            size_t dropped = fifo_.flush();
            dma_.cancelAll();
            events_.inc("conflicts");
            events_.inc("fifo_flushed_entries", dropped);
            if (record_trace)
                res.trace.push_back(
                    {now_, "conflict",
                     "clause C" + std::to_string(idx) +
                         " conflicting; FIFO flushed (" +
                         std::to_string(dropped) + " dropped)"});
            return;
        }
    }
}

BcpResult
BcpPipeline::decide(Lit decision, bool record_trace)
{
    BcpResult res;
    uint64_t start = now_;

    if (litValue(decision) == LBool::False) {
        res.conflict = true;
        res.cycles = 1;
        now_ += 1;
        return res;
    }

    // Broadcast the decision down the distribution tree.
    now_ += config_.broadcastCycles();
    events_.inc("broadcasts");
    if (record_trace)
        res.trace.push_back({now_, "broadcast",
                             "decision " + decision.toString()});
    if (litValue(decision) == LBool::Undef)
        assign(decision);

    // Propagate: the falsified complement triggers watch-list work; each
    // queued implication is popped from the FIFO and broadcast in a
    // pipelined fashion.
    std::vector<Lit> queue{decision};
    size_t qi = 0;
    while (qi < queue.size() && !res.conflict) {
        Lit p = queue[qi++];
        if (qi > 1) {
            // Pop from FIFO and broadcast (pipelined: 1 cycle issue).
            if (!fifo_.empty())
                fifo_.pop();
            now_ += 1;
            events_.inc("broadcasts");
            if (record_trace)
                res.trace.push_back({now_, "fifo",
                                     "pop + broadcast " + p.toString()});
        }
        size_t before = res.implications.size();
        processFalsified(~p, res, record_trace);
        for (size_t k = before; k < res.implications.size(); ++k)
            queue.push_back(res.implications[k]);
    }
    // Drain FIFO bookkeeping for implications that were never popped
    // (conflict aborts remaining work).
    if (!res.conflict)
        while (!fifo_.empty())
            fifo_.pop();

    res.cycles = now_ - start;
    events_.inc("bcp_episodes");
    return res;
}

uint64_t
estimateCdclCycles(const logic::SolverStats &stats,
                   size_t clause_db_bytes, const ArchConfig &config)
{
    uint64_t cycles = 0;
    // Decisions broadcast root-to-leaf.
    cycles += stats.decisions * config.broadcastCycles();
    // Propagations are pipelined through the FIFO at ~1/cycle; the
    // watch-list traversal work is spread across the leaf nodes.
    cycles += stats.propagations;
    cycles += stats.literalVisits /
              std::max<uint64_t>(1, config.leavesPerPe());
    // SRAM misses on the clause database (fraction not resident).
    // Only the exposed remainder of each miss is charged: the FIFO
    // keeps servicing queued implications while the fetch is in
    // flight (see ArchConfig::dmaMissExposedFraction).
    double resident = clause_db_bytes == 0
                          ? 1.0
                          : std::min(1.0, double(config.sramBytes) /
                                              double(clause_db_bytes));
    double miss_rate = 1.0 - resident;
    cycles += static_cast<uint64_t>(double(stats.propagations) *
                                    miss_rate * config.dmaLatencyCycles *
                                    config.dmaMissExposedFraction);
    // Conflict analysis runs on the scalar PE.
    cycles += stats.conflicts * (2 + config.reductionCycles());
    cycles += stats.learnedLiterals * 2;
    cycles += stats.restarts * 64;
    return cycles;
}

SymbolicTiming
solveOnAccelerator(const CnfFormula &formula, const ArchConfig &config,
                   uint32_t cube_depth)
{
    SymbolicTiming out;
    out.peBusyCycles.assign(config.numPes, 0);

    // Phase 1: lookahead cube generation (DPLL broadcast mode).  Probe
    // work parallelizes across PEs.
    logic::CubeSplitter splitter(formula, cube_depth);
    std::vector<logic::Cube> cubes = splitter.split();
    const logic::DpllStats &ds = splitter.stats();
    uint64_t split_cycles =
        (ds.lookaheads * config.broadcastCycles() + ds.propagations) /
        std::max<uint32_t>(1, config.numPes);
    out.events.inc("split_lookaheads", ds.lookaheads);
    out.events.inc("split_propagations", ds.propagations);

    // Phase 2: conquer each cube with an independent CDCL instance; the
    // per-cube cycle cost follows the hardware event charges.
    size_t db_bytes = 0;
    for (const auto &c : formula.clauses())
        db_bytes += 8 + 4 * c.size();

    struct CubeCost
    {
        uint64_t cycles;
        size_t index;
    };
    std::vector<CubeCost> costs;
    out.result = logic::SolveResult::Unsat;
    for (size_t i = 0; i < cubes.size(); ++i) {
        if (cubes[i].refuted)
            continue;
        logic::CdclSolver solver(formula);
        logic::SolveResult r = solver.solve(cubes[i].lits);
        const logic::SolverStats &st = solver.stats();
        out.aggregate.decisions += st.decisions;
        out.aggregate.propagations += st.propagations;
        out.aggregate.conflicts += st.conflicts;
        out.aggregate.learnedClauses += st.learnedClauses;
        out.aggregate.learnedLiterals += st.learnedLiterals;
        out.aggregate.restarts += st.restarts;
        out.aggregate.literalVisits += st.literalVisits;
        costs.push_back({estimateCdclCycles(st, db_bytes, config), i});
        if (r == logic::SolveResult::Sat &&
            out.result != logic::SolveResult::Sat)
            out.result = logic::SolveResult::Sat;
    }

    // Longest-processing-time assignment of cubes onto PEs.
    std::sort(costs.begin(), costs.end(),
              [](const CubeCost &a, const CubeCost &b) {
                  return a.cycles > b.cycles;
              });
    for (const CubeCost &c : costs) {
        auto it = std::min_element(out.peBusyCycles.begin(),
                                   out.peBusyCycles.end());
        *it += c.cycles;
    }
    uint64_t makespan =
        costs.empty() ? 0
                      : *std::max_element(out.peBusyCycles.begin(),
                                          out.peBusyCycles.end());

    out.cycles = std::max<uint64_t>(1, split_cycles + makespan);
    out.seconds = double(out.cycles) * config.cycleSeconds();
    uint64_t busy_total = 0;
    for (uint64_t b : out.peBusyCycles)
        busy_total += b;
    out.peUtilization =
        makespan == 0
            ? 0.0
            : double(busy_total) /
                  (double(makespan) * double(config.numPes));
    out.events.inc("cycles", out.cycles);
    out.events.inc("cubes", cubes.size());
    return out;
}

} // namespace arch
} // namespace reason
