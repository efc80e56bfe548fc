/**
 * @file
 * The REASON programming interface (Sec. VI-B, Listing 1):
 * REASON_execute / REASON_check_status over shared-memory flag buffers.
 *
 * Since the serving redesign this is a thin compatibility shim over
 * sys::ReasonEngine (sys/engine.h): a ReasonRuntime owns one engine
 * with one program session and turns every REASON_execute call into a
 * submit + blocking wait, preserving the original single-tenant
 * polling semantics (simulated-cycle accounting included) bit for bit.
 * New code should use the engine directly — it serves many sessions,
 * overlaps submission with execution, and coalesces requests into
 * batched evaluations.
 *
 * The runtime simulates the co-processor side: the host (GPU SM proxy)
 * writes neural results into shared memory and sets `neural_ready`;
 * REASON polls the flag, runs the compiled symbolic kernel on the cycle
 * simulator, writes results back, and raises `symbolic_ready`.
 */

#ifndef REASON_SYS_REASON_API_H
#define REASON_SYS_REASON_API_H

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "arch/accelerator.h"
#include "compiler/program.h"
#include "sys/engine.h"

namespace reason {
namespace sys {

/**
 * Host-visible shared memory segment: data buffers plus the
 * neural_ready / symbolic_ready synchronization flags.
 */
struct SharedMemory
{
    std::vector<double> neuralBuffer;
    std::vector<double> symbolicBuffer;
    bool neuralReady = false;
    bool symbolicReady = false;
};

/**
 * Simulated REASON co-processor runtime implementing the C-style
 * interface of Listing 1, as a compatibility shim over ReasonEngine.
 */
class ReasonRuntime
{
  public:
    /**
     * `options` go to the embedded engine unchanged.  They do not
     * change Listing-1 results — REASON_execute submits and waits one
     * batch at a time, so coalescing never crosses a call — but they
     * apply when the engine is shared with async submitters.
     */
    ReasonRuntime(const arch::ArchConfig &config,
                  compiler::Program program,
                  const ServeOptions &options = {});

    /** Shared memory visible to both host and co-processor. */
    SharedMemory &sharedMemory() { return shm_; }

    /**
     * Trigger symbolic execution for one batch (Listing 1).
     * The neural buffer must hold batch_size * numInputs doubles; the
     * symbolic buffer receives batch_size root values.
     *
     * @return REASON_OK (0) on success, or a distinct negative
     *         ReasonError (sys/request_queue.h):
     *         REASON_ERR_BAD_BATCH for batch_size <= 0,
     *         REASON_ERR_NULL_BUFFER for a null neural or symbolic
     *         buffer, REASON_ERR_BAD_MODE when *reasoning_mode is not
     *         a ReasonMode value (a null pointer defaults to
     *         REASON_MODE_PROBABILISTIC), and
     *         REASON_ERR_DUPLICATE_BATCH when batch_id was already
     *         executed on this runtime (ids are tracked forever;
     *         resubmission was previously a silent last-write-wins
     *         overwrite and is now a documented error).
     */
    int REASON_execute(int batch_id, int batch_size,
                       const void *neural_buffer,
                       const void *reasoning_mode,
                       void *symbolic_buffer);

    /**
     * Query execution status (Listing 1).  With blocking=true, waits
     * (advances simulated time) until the batch completes.
     *
     * @return REASON_IDLE or REASON_EXECUTION.
     */
    int REASON_check_status(int batch_id, bool blocking);

    /** Simulated cycles consumed so far. */
    uint64_t totalCycles() const { return now_; }

    /** Per-batch execution results. */
    const std::unordered_map<int, arch::ExecutionResult> &results() const
    {
        return results_;
    }

    /** The serving engine backing this runtime (shared sessions etc.). */
    ReasonEngine &engine() { return engine_; }

  private:
    ReasonEngine engine_;
    Session session_;
    SharedMemory shm_;
    uint64_t now_ = 0;
    /** batch id -> completion cycle. */
    std::unordered_map<int, uint64_t> completion_;
    std::unordered_map<int, arch::ExecutionResult> results_;
};

} // namespace sys
} // namespace reason

#endif // REASON_SYS_REASON_API_H
