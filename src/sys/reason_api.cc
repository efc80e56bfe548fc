#include "sys/reason_api.h"

#include <cstring>

namespace reason {
namespace sys {

ReasonRuntime::ReasonRuntime(const arch::ArchConfig &config,
                             compiler::Program program,
                             const ServeOptions &options)
    : engine_(options),
      session_(engine_.createSession(config, std::move(program)))
{
}

int
ReasonRuntime::REASON_execute(int batch_id, int batch_size,
                              const void *neural_buffer,
                              const void *reasoning_mode,
                              void *symbolic_buffer)
{
    if (batch_size <= 0)
        return REASON_ERR_BAD_BATCH;
    if (neural_buffer == nullptr || symbolic_buffer == nullptr)
        return REASON_ERR_NULL_BUFFER;
    int mode = REASON_MODE_PROBABILISTIC;
    if (reasoning_mode)
        std::memcpy(&mode, reasoning_mode, sizeof(int));
    if (mode < REASON_MODE_PROBABILISTIC || mode > REASON_MODE_SPMSPM)
        return REASON_ERR_BAD_MODE;
    if (completion_.count(batch_id))
        return REASON_ERR_DUPLICATE_BATCH;

    const double *in = static_cast<const double *>(neural_buffer);
    double *out = static_cast<double *>(symbolic_buffer);

    // Host raised neural_ready before calling (Sec. VI-B).
    shm_.neuralReady = true;
    shm_.symbolicReady = false;

    // Listing-1 is synchronous: one submission, one blocking wait.
    std::shared_ptr<const Request> request =
        session_.wait(session_.submitProgram(batch_size, in, mode));
    if (request->error != REASON_OK)
        return request->error;

    std::memcpy(out, request->outputs.data(),
                request->outputs.size() * sizeof(double));
    results_[batch_id] = request->exec;
    completion_[batch_id] = now_ + request->execCycles;
    now_ += request->execCycles;

    shm_.neuralReady = false;
    shm_.symbolicReady = true;
    shm_.symbolicBuffer.assign(out, out + batch_size);
    return REASON_OK;
}

int
ReasonRuntime::REASON_check_status(int batch_id, bool blocking)
{
    auto it = completion_.find(batch_id);
    if (it == completion_.end())
        return REASON_IDLE; // never launched: nothing in flight
    if (now_ >= it->second)
        return REASON_IDLE;
    if (blocking) {
        now_ = it->second;
        return REASON_IDLE;
    }
    return REASON_EXECUTION;
}

} // namespace sys
} // namespace reason
