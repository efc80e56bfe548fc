/**
 * @file
 * Architectural parameters of the REASON accelerator (Fig. 10, Sec. V-F).
 *
 * Defaults reflect the paper's selected configuration: 12 tree PEs of
 * depth D=3 (8 leaf slots, 7 compute nodes each), B=64 register banks of
 * R=32 registers, 1.25 MB local SRAM, 104 GB/s LPDDR5 DRAM, 500 MHz at
 * TSMC 28 nm.
 */

#ifndef REASON_ARCH_CONFIG_H
#define REASON_ARCH_CONFIG_H

#include <cstddef>
#include <cstdint>

#include "compiler/compile.h"

namespace reason {
namespace arch {

/** Full hardware configuration of one REASON instance. */
struct ArchConfig
{
    // Compute fabric.
    uint32_t numPes = 12;
    uint32_t treeDepth = 3; ///< D
    // Register file.
    uint32_t numBanks = 64;   ///< B
    uint32_t regsPerBank = 32; ///< R
    uint32_t bankReadPorts = 2;
    // Memory system.
    uint32_t sramBytes = 1280 * 1024; ///< 1.25 MB local SRAM
    uint32_t sramBanks = 16;
    /// Fixed L2/DRAM fetch latency: a DmaEngine with no DRAM model
    /// attached, and the analytic BCP miss estimate.
    uint32_t dmaLatencyCycles = 24;
    double dramBandwidthGBps = 104.0;
    // DRAM timing model (arch/dram.h).  DMA consumers issue
    // address-carrying requests into a cycle-driven LPDDR5-class model
    // (bank state machines, row-buffer tracking, FR-FCFS per channel).
    // Timing defaults are controller cycles at the 500 MHz clock (2 ns
    // each), so e.g. tRCD = 9 cycles = 18 ns.  Geometry fields must be
    // powers of two.
    uint32_t dramChannels = 8;
    uint32_t dramRanksPerChannel = 1;
    uint32_t dramBanksPerRank = 8;
    uint32_t dramRowBytes = 2048;  ///< open page per bank (2 KB LPDDR5)
    uint32_t dramBurstBytes = 32;  ///< one data burst (BL16 x16)
    uint32_t dramBurstCycles = 1;  ///< data-bus beats per burst
    uint32_t dramTRcdCycles = 9;   ///< ACT -> column command
    uint32_t dramTRpCycles = 9;    ///< PRE -> ACT
    uint32_t dramTCasCycles = 9;   ///< column command -> first data
    uint32_t dramTRasCycles = 21;  ///< ACT -> earliest PRE
    uint32_t dramQueueDepth = 16;  ///< per-channel request-queue bound
    /**
     * Fraction of a DMA clause-miss latency that is NOT hidden behind
     * FIFO servicing in the analytic CDCL cycle estimate
     * (estimateCdclCycles): the pipeline keeps draining queued
     * implications while a fetch is in flight, overlapping ~70 % of the
     * miss, so only this exposed remainder is charged.
     */
    double dmaMissExposedFraction = 0.3;
    // Symbolic engine.
    uint32_t bcpFifoDepth = 16;
    // Clocking.
    double clockGhz = 0.5;

    /** Cycles for one root-to-leaf broadcast (tree levels + drive). */
    uint32_t broadcastCycles() const { return treeDepth + 1; }
    /** Cycles for one leaf-to-root reduction. */
    uint32_t reductionCycles() const { return treeDepth + 1; }
    /** End-to-end tree pipeline latency for one block. */
    uint32_t pipelineLatency() const { return treeDepth + 3; }

    size_t leavesPerPe() const { return size_t(1) << treeDepth; }
    size_t nodesPerPe() const { return (size_t(1) << treeDepth) - 1; }
    /** Total arithmetic tree nodes across the fabric. */
    size_t totalTreeNodes() const { return numPes * nodesPerPe(); }

    /** Seconds per cycle. */
    double cycleSeconds() const { return 1e-9 / clockGhz; }

    /** Total DRAM banks across all channels and ranks. */
    uint32_t dramTotalBanks() const
    {
        return dramChannels * dramRanksPerChannel * dramBanksPerRank;
    }

    /**
     * DRAM interface bytes per controller cycle, derived from the
     * configured peak bandwidth and clock (104 GB/s at 0.5 GHz = 208).
     * Used by a detached DmaEngine's fixed-latency path as its
     * bandwidth term.
     */
    uint32_t dmaBytesPerCycle() const
    {
        double bpc = dramBandwidthGBps / clockGhz;
        return bpc < 1.0 ? 1u : static_cast<uint32_t>(bpc);
    }

    /** Matching compiler target. */
    compiler::TargetConfig
    compilerTarget() const
    {
        compiler::TargetConfig t;
        t.treeDepth = treeDepth;
        t.numPes = numPes;
        t.numBanks = numBanks;
        t.regsPerBank = regsPerBank;
        return t;
    }
};

} // namespace arch
} // namespace reason

#endif // REASON_ARCH_CONFIG_H
