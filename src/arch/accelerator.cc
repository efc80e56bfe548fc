#include "arch/accelerator.h"

#include <algorithm>
#include <unordered_map>

#include "arch/dram.h"
#include "util/logging.h"
#include "util/numeric.h"

namespace reason {
namespace arch {

Accelerator::Accelerator(const ArchConfig &config) : config_(config)
{
    reasonAssert(config.numPes >= 1, "need at least one PE");
    reasonAssert(config.numBanks >= config.numPes,
                 "each PE needs an output bank");
}

double
Accelerator::evalBlock(const compiler::Program &program,
                       const compiler::Block &blk,
                       const std::vector<double> &regfile,
                       StatGroup &events) const
{
    const uint32_t depth = program.treeDepth;
    const size_t leaves = program.leavesPerPe();

    // Leaf level: fetch + affine transform.
    std::vector<double> level_vals(leaves, 0.0);
    for (size_t s = 0; s < leaves; ++s) {
        const compiler::OperandRef &op = blk.operands[s];
        if (!op.valid)
            continue;
        double x = 0.0;
        if (op.fetch) {
            x = regfile[size_t(op.bank) * stride_ + op.reg];
            events.inc("regfile_reads");
        }
        level_vals[s] = op.a * x + op.b;
        if (op.a != 0.0 && op.a != 1.0)
            events.inc("leaf_mul_ops");
        if (op.b != 0.0)
            events.inc("leaf_add_ops");
    }

    // Tree levels, bottom (level depth-1) to root (level 0).
    std::vector<double> cur = std::move(level_vals);
    for (uint32_t lvl = depth; lvl-- > 0;) {
        size_t width = size_t(1) << lvl;
        std::vector<double> next(width, 0.0);
        size_t base = (size_t(1) << lvl) - 1;
        for (size_t p = 0; p < width; ++p) {
            compiler::TreeOp op = blk.nodeOps[base + p];
            double l = cur[2 * p];
            double r = cur[2 * p + 1];
            switch (op) {
              case compiler::TreeOp::Add:
                next[p] = l + r;
                events.inc("tree_add_ops");
                break;
              case compiler::TreeOp::Mul:
                next[p] = l * r;
                events.inc("tree_mul_ops");
                break;
              case compiler::TreeOp::Max:
                next[p] = std::max(l, r);
                events.inc("tree_cmp_ops");
                break;
              case compiler::TreeOp::Min:
                next[p] = std::min(l, r);
                events.inc("tree_cmp_ops");
                break;
              case compiler::TreeOp::PassLeft:
                next[p] = l;
                break;
              case compiler::TreeOp::Nop:
                next[p] = 0.0;
                break;
            }
        }
        cur = std::move(next);
    }
    return cur[0];
}

ExecutionResult
Accelerator::run(const compiler::Program &program,
                 const std::vector<double> &inputs, bool preloaded) const
{
    ExecutionResult res;
    reasonAssert(program.numPes == config_.numPes &&
                     program.treeDepth == config_.treeDepth,
                 "program compiled for a different configuration");

    // Shadow register file: (bank, reg) -> value, addressed densely with
    // a per-program stride; spills beyond R still hold their value (the
    // scratchpad backs them) but pay timing.
    size_t max_reg = 1;
    for (const auto &blk : program.blocks) {
        max_reg = std::max<size_t>(max_reg, size_t(blk.dest.reg) + 1);
        for (const auto &op : blk.operands)
            if (op.valid && op.fetch)
                max_reg = std::max<size_t>(max_reg, size_t(op.reg) + 1);
    }
    for (const auto &p : program.inputs)
        max_reg = std::max<size_t>(max_reg, size_t(p.reg) + 1);
    const size_t stride = max_reg;
    std::vector<double> regfile(size_t(config_.numBanks) * stride, 0.0);

    // Input preload: DMA from the shared scratchpad into banks.
    uint64_t input_ready_cycle = 0;
    for (const auto &p : program.inputs) {
        reasonAssert(p.inputTag < inputs.size(),
                     "missing external input value");
        regfile[size_t(p.bank) * stride + p.reg] = inputs[p.inputTag];
    }
    if (!preloaded && !program.inputs.empty()) {
        // Program-session preload through the DRAM timing model: the
        // session coalesces the input words (laid out by input tag in
        // scratchpad DRAM) into same-row burst trains, so sequential
        // tag ranges become row hits striped across channels.
        DramModel dram(config_);
        DmaSession session(dram, 8);
        for (const auto &p : program.inputs)
            session.requestWord(uint64_t(p.inputTag) * 8);
        input_ready_cycle = session.complete(0);
        dram.exportStats(res.events);
        res.events.inc("dma_session_words", session.wordsRequested());
        res.events.inc("dma_session_runs", session.runsIssued());
        res.events.inc("dma_bytes", program.inputs.size() * 8);
        res.dmaStallCycles = input_ready_cycle;
    }

    // Replay the schedule in order, per PE, enforcing hazards.
    const uint32_t latency = config_.pipelineLatency();
    std::vector<uint64_t> pe_free(config_.numPes, input_ready_cycle);
    std::vector<uint64_t> value_ready(program.blocks.size(), 0);
    // Bank read-port usage per cycle: bank -> (cycle -> uses).
    std::vector<std::unordered_map<uint64_t, uint32_t>> bank_use(
        config_.numBanks);
    // Producer block of each (bank, reg) destination.
    std::unordered_map<uint64_t, uint32_t> producer_of;
    for (uint32_t b = 0; b < program.blocks.size(); ++b) {
        const auto &dest = program.blocks[b].dest;
        producer_of[uint64_t(dest.bank) << 32 | dest.reg] = b;
    }

    res.blockValues.assign(program.blocks.size(), 0.0);
    uint64_t last_complete = input_ready_cycle;
    uint64_t total_issue_opportunities = 0;
    uint64_t issued_blocks = 0;

    for (const auto &slot : program.schedule) {
        const compiler::Block &blk = program.blocks[slot.block];

        // Earliest cycle data dependencies allow.
        uint64_t ready = pe_free[slot.pe];
        for (uint32_t dep : blk.depends)
            ready = std::max(ready, value_ready[dep]);
        ready = std::max(ready, input_ready_cycle);

        // Structural hazard: register-bank read ports.  Retry until all
        // operand banks have a free port in the same cycle.
        uint64_t t = ready;
        while (true) {
            // Count reads per bank at cycle t.
            std::unordered_map<uint32_t, uint32_t> need;
            for (const auto &op : blk.operands)
                if (op.valid && op.fetch)
                    ++need[op.bank];
            bool ok = true;
            for (const auto &kv : need) {
                uint32_t in_use = 0;
                auto it = bank_use[kv.first].find(t);
                if (it != bank_use[kv.first].end())
                    in_use = it->second;
                if (in_use >= config_.bankReadPorts) {
                    ok = false;
                    break;
                }
            }
            if (ok) {
                // Multi-read serialization: a block needing k reads from
                // one bank occupies ceil(k/ports) consecutive cycles.
                uint64_t extra = 0;
                for (const auto &kv : need) {
                    uint64_t span = ceilDiv<uint64_t>(
                        kv.second, config_.bankReadPorts);
                    extra = std::max<uint64_t>(extra, span - 1);
                    for (uint64_t c = 0; c < span; ++c)
                        bank_use[kv.first][t + c] +=
                            std::min<uint32_t>(kv.second,
                                               config_.bankReadPorts);
                }
                res.bankStallCycles += extra;
                t += extra; // issue completes after serialized reads
                break;
            }
            ++t;
            ++res.bankStallCycles;
        }

        if (t > pe_free[slot.pe])
            res.idlePeCycles += t - pe_free[slot.pe];
        total_issue_opportunities += 1;

        // Execute functionally.
        stride_ = stride;
        res.blockValues[slot.block] =
            evalBlock(program, blk, regfile, res.events);
        const auto &dest = blk.dest;
        regfile[size_t(dest.bank) * stride + dest.reg] =
            res.blockValues[slot.block];
        res.events.inc("regfile_writes");
        res.events.inc("blocks_executed");

        // Spill timing: destinations beyond R pay a scratchpad write
        // (one extra cycle before the value is consumable).
        uint64_t spill_penalty = 0;
        if (dest.reg >= config_.regsPerBank) {
            res.events.inc("spill_writes");
            res.events.inc("sram_accesses");
            spill_penalty = 2;
        }

        uint64_t done = t + latency + spill_penalty;
        value_ready[slot.block] = done;
        pe_free[slot.pe] = t + 1; // pipelined: next issue next cycle
        last_complete = std::max(last_complete, done);
        ++issued_blocks;
    }

    res.cycles = last_complete;
    res.rootValue = res.blockValues.empty()
                        ? 0.0
                        : res.blockValues[program.rootBlock];
    double busy = static_cast<double>(issued_blocks);
    double capacity = static_cast<double>(last_complete) *
                      static_cast<double>(config_.numPes);
    res.peUtilization = capacity > 0.0 ? busy / capacity : 0.0;
    res.events.inc("cycles", res.cycles);
    (void)total_issue_opportunities;
    return res;
}

} // namespace arch
} // namespace reason
