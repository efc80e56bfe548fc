/**
 * @file
 * Symbolic-mode execution of the REASON fabric (Sec. V-D/V-E): the
 * cycle-stepped Boolean-constraint-propagation pipeline with hardware
 * watch lists, BCP FIFO, SRAM residency and DMA (Fig. 9), plus the
 * cube-and-conquer solver driver that distributes CDCL conquer work over
 * the tree PEs.
 */

#ifndef REASON_ARCH_SYMBOLIC_H
#define REASON_ARCH_SYMBOLIC_H

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "arch/config.h"
#include "arch/memory.h"
#include "logic/cnf.h"
#include "logic/dpll.h"
#include "logic/solver.h"
#include "util/stats.h"

namespace reason {
namespace arch {

/** One event in the Fig. 9-style pipeline trace. */
struct TraceEvent
{
    uint64_t cycle = 0;
    std::string unit;   ///< "broadcast", "reduce", "fifo", "wl", "dma",
                        ///< "control", "conflict"
    std::string detail;
};

/** Outcome of one BCP episode (propagating one decision to fixpoint). */
struct BcpResult
{
    /** Implied literals in propagation order. */
    std::vector<logic::Lit> implications;
    /** True when propagation derived a conflict. */
    bool conflict = false;
    /** Cycles consumed by this episode. */
    uint64_t cycles = 0;
    std::vector<TraceEvent> trace;
};

/**
 * Cycle-stepped BCP pipeline: executes real two-watched-literal unit
 * propagation over a CNF while modeling the distribution-tree broadcast,
 * leaf watch-list lookups (with SRAM residency and DMA on miss), the
 * implication FIFO, the reduction tree, and priority conflict handling
 * (FIFO flush + DMA cancel).
 *
 * Functional output (implication set, conflict detection) matches
 * software unit propagation exactly; tests rely on this.
 */
class BcpPipeline
{
  public:
    BcpPipeline(const logic::CnfFormula &formula,
                const ArchConfig &config);
    ~BcpPipeline();

    /**
     * Assign a decision literal and propagate to fixpoint.
     * @param record_trace collect per-cycle TraceEvents (small runs).
     */
    BcpResult decide(logic::Lit decision, bool record_trace = false);

    /** Undo everything back to an empty assignment. */
    void reset();

    /** Current value of a variable. */
    logic::LBool value(uint32_t var) const { return assigns_[var]; }

    /** Aggregate hardware counters across all episodes. */
    const StatGroup &events() const { return events_; }
    const BcpFifo &fifo() const { return fifo_; }
    const ClauseSram &sram() const { return sram_; }
    const WatchListUnit &watchUnit() const { return wl_; }
    /** DRAM timing model behind clause misses. */
    const DramModel *dram() const { return dram_.get(); }
    uint64_t totalCycles() const { return now_; }

  private:
    logic::LBool litValue(logic::Lit l) const;
    void assign(logic::Lit l);
    /**
     * Process one literal becoming false: traverse its watch list,
     * relocate watches, emit implications / detect conflict.
     */
    void processFalsified(logic::Lit p, BcpResult &res,
                          bool record_trace);
    size_t clauseBytes(uint32_t idx) const;

    const logic::CnfFormula &formula_;
    ArchConfig config_;
    std::vector<logic::Clause> clauses_;
    std::vector<std::array<logic::Lit, 2>> watched_;
    /** DRAM byte address of each clause (prefix sums of clauseBytes). */
    std::vector<uint64_t> clauseAddr_;
    WatchListUnit wl_;
    ClauseSram sram_;
    BcpFifo fifo_;
    std::unique_ptr<DramModel> dram_;
    DmaEngine dma_;
    std::vector<logic::LBool> assigns_;
    std::vector<logic::Lit> trail_;
    uint64_t now_ = 0;
    StatGroup events_;
};

/** Cycle- and energy-relevant totals for a full symbolic solve. */
struct SymbolicTiming
{
    logic::SolveResult result = logic::SolveResult::Unknown;
    uint64_t cycles = 0;
    double seconds = 0.0;
    /** Per-PE busy cycles (cube conquer distribution). */
    std::vector<uint64_t> peBusyCycles;
    /** Search-effort statistics aggregated over all cubes. */
    logic::SolverStats aggregate;
    StatGroup events;
    double peUtilization = 0.0;
};

/**
 * Full symbolic solve on the accelerator: lookahead cube generation on
 * the scalar PE, conquer CDCL instances distributed across the tree PEs
 * (longest-processing-time assignment), cycles charged per hardware
 * event via the component models.
 */
SymbolicTiming solveOnAccelerator(const logic::CnfFormula &formula,
                                  const ArchConfig &config,
                                  uint32_t cube_depth = 4);

/**
 * Analytic event-to-cycle mapping for a software-measured CDCL run
 * (used by the large benches where full pipeline simulation is not
 * needed).  Mirrors the per-event charges of solveOnAccelerator.
 */
uint64_t estimateCdclCycles(const logic::SolverStats &stats,
                            size_t clause_db_bytes,
                            const ArchConfig &config);

} // namespace arch
} // namespace reason

#endif // REASON_ARCH_SYMBOLIC_H
