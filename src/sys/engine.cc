#include "sys/engine.h"

#include <bit>
#include <cmath>

#include "pc/flat_cache.h"
#include "pc/pc.h"
#include "sys/fault.h"
#include "util/logging.h"

namespace reason {
namespace sys {

/**
 * Shared per-session state.  Exactly one of the two kinds is active:
 * circuit sessions carry the cached lowering (also their coalescing
 * key); program sessions carry the compiled program and a private
 * cycle-accurate accelerator, used only by the dispatcher.
 */
struct SessionState
{
    /** Circuit sessions: immutable shared lowering. */
    std::shared_ptr<const pc::FlatCircuit> lowering;

    /** Program sessions. */
    std::unique_ptr<arch::Accelerator> accel;
    compiler::Program program;
    uint32_t numInputs = 0;

    bool isProgram() const { return accel != nullptr; }
};

namespace {

/** Distinct lowerings each dispatcher keeps warm evaluators for. */
constexpr size_t kMaxCachedEvaluators = 32;

} // namespace

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

RequestHandle
Session::finishRejected(std::shared_ptr<Request> request, int error) const
{
    request->error = error;
    request->state = RequestState::Done;
    return RequestHandle(std::move(request));
}

RequestHandle
Session::submit(pc::Assignment row, double accuracyBudget,
                uint64_t deadlineNs)
{
    std::vector<pc::Assignment> rows;
    rows.push_back(std::move(row));
    return submitBatch(std::move(rows), accuracyBudget, deadlineNs);
}

RequestHandle
Session::submitBatch(std::vector<pc::Assignment> rows,
                     double accuracyBudget, uint64_t deadlineNs)
{
    auto request = std::make_shared<Request>();
    request->session = state_;
    if (engine_ == nullptr || state_ == nullptr || state_->isProgram())
        return finishRejected(std::move(request),
                              REASON_ERR_WRONG_SESSION);
    // NaN fails the >= comparison; infinities are explicit.  Budgets
    // are rejected, never clamped.
    if (!(accuracyBudget >= 0.0) || std::isinf(accuracyBudget))
        return finishRejected(std::move(request),
                              REASON_ERR_BAD_BUDGET);
    if (rows.empty())
        return finishRejected(std::move(request), REASON_ERR_BAD_BATCH);
    const pc::FlatCircuit &flat = *state_->lowering;
    for (const pc::Assignment &x : rows) {
        if (x.size() < flat.numVars)
            return finishRejected(std::move(request),
                                  REASON_ERR_BAD_ASSIGNMENT);
        for (uint32_t v = 0; v < flat.numVars; ++v)
            if (x[v] != pc::kMissing && x[v] >= flat.arity)
                return finishRejected(std::move(request),
                                      REASON_ERR_BAD_ASSIGNMENT);
    }
    // Tier selection: a positive budget routes to the approximate
    // tier; budget 0 (including -0.0) is the exact tier, bit for bit
    // the same path as a budget-less submission.
    if (accuracyBudget > 0.0) {
        request->mode = REASON_MODE_APPROX;
        request->accuracyBudget = accuracyBudget;
    } else {
        request->mode = REASON_MODE_PROBABILISTIC;
    }
    request->groupKey = state_->lowering.get();
    request->rows = std::move(rows);
    // Deadlines are relative at the API surface (clients think in
    // timeouts) and anchored to the steady clock here, so queue hops
    // never re-anchor them.
    if (deadlineNs != 0)
        request->deadlineNs = steadyNowNs() + deadlineNs;
    return engine_->enqueue(request);
}

RequestHandle
Session::submitProgram(int batch_size, const double *inputs, int mode)
{
    auto request = std::make_shared<Request>();
    request->session = state_;
    if (engine_ == nullptr || state_ == nullptr || !state_->isProgram())
        return finishRejected(std::move(request),
                              REASON_ERR_WRONG_SESSION);
    if (batch_size <= 0)
        return finishRejected(std::move(request), REASON_ERR_BAD_BATCH);
    if (inputs == nullptr)
        return finishRejected(std::move(request),
                              REASON_ERR_NULL_BUFFER);
    if (mode < REASON_MODE_PROBABILISTIC || mode > REASON_MODE_SPMSPM)
        return finishRejected(std::move(request), REASON_ERR_BAD_MODE);
    request->mode = ReasonMode(mode);
    request->groupKey = state_.get();
    // Program execution mutates the session accelerator: the shard
    // must serialize its in-flight groups across dispatchers.
    request->exclusive = true;
    request->batchSize = batch_size;
    request->inputs.assign(inputs,
                           inputs + size_t(batch_size) *
                                        state_->numInputs);
    return engine_->enqueue(request);
}

bool
Session::poll(const RequestHandle &handle) const
{
    reasonAssert(handle.valid(), "poll on an invalid handle");
    if (engine_ == nullptr) {
        // An invalid session can only have produced rejected-at-submit
        // handles; those completed synchronously and were never shared
        // with a dispatcher, so the unsynchronized read is safe.
        reasonAssert(handle.request_->state == RequestState::Done,
                     "poll on an invalid session");
        return true;
    }
    return engine_->queue_.pollDone(*handle.request_);
}

std::shared_ptr<const Request>
Session::wait(const RequestHandle &handle) const
{
    reasonAssert(handle.valid(), "wait on an invalid handle");
    if (engine_ == nullptr) {
        // See poll(): only already-completed rejection handles exist.
        reasonAssert(handle.request_->state == RequestState::Done,
                     "wait on an invalid session");
        return handle.request_;
    }
    engine_->queue_.waitDone(*handle.request_);
    return handle.request_;
}

// ---------------------------------------------------------------------------
// ReasonEngine
// ---------------------------------------------------------------------------

ReasonEngine::ReasonEngine(const ServeOptions &options)
    : options_(options), queue_(options)
{
    if (options_.maxBatch == 0)
        options_.maxBatch = 1;
    if (options_.dispatchers == 0)
        options_.dispatchers = 1;
    // Disjoint pin layout: dispatcher d occupies the contiguous core
    // block [base, base + poolThreads).  The dispatcher thread takes
    // the block's first core — it is worker 0 of its own pool (the
    // parallelFor caller) — and the pool's spawned workers take the
    // rest, so pools of different dispatchers never stack on the same
    // low core indices.
    unsigned pin_base = 0;
    for (unsigned d = 0; d < options_.dispatchers; ++d) {
        auto disp = std::make_unique<Dispatcher>();
        disp->evalPool = std::make_unique<util::ThreadPool>(
            options_.serveThreads, options_.pinThreads, pin_base);
        disp->pinCore = pin_base;
        pin_base += disp->evalPool->numThreads();
        dispatchers_.push_back(std::move(disp));
    }
    for (unsigned d = 0; d < options_.dispatchers; ++d) {
        Dispatcher *disp = dispatchers_[d].get();
        disp->thread = std::thread([this, disp] {
            if (options_.pinThreads)
                util::pinCurrentThreadToCore(disp->pinCore);
            workerLoop(*disp);
        });
    }
}

ReasonEngine::~ReasonEngine()
{
    queue_.shutdown();
    for (auto &disp : dispatchers_)
        if (disp->thread.joinable())
            disp->thread.join();
}

Session
ReasonEngine::createSession(const pc::Circuit &circuit)
{
    auto state = std::make_shared<SessionState>();
    state->lowering = pc::cachedLowering(circuit);
    return Session(this, std::move(state));
}

Session
ReasonEngine::createSession(std::shared_ptr<const pc::FlatCircuit> lowering)
{
    reasonAssert(lowering != nullptr, "createSession: null lowering");
    auto state = std::make_shared<SessionState>();
    state->lowering = std::move(lowering);
    return Session(this, std::move(state));
}

Session
ReasonEngine::createSession(const arch::ArchConfig &config,
                            compiler::Program program)
{
    auto state = std::make_shared<SessionState>();
    state->accel = std::make_unique<arch::Accelerator>(config);
    state->program = std::move(program);
    uint32_t num_inputs = 0;
    for (const auto &p : state->program.inputs)
        num_inputs = std::max(num_inputs, p.inputTag + 1);
    state->numInputs = num_inputs;
    return Session(this, std::move(state));
}

void
ReasonEngine::pause()
{
    queue_.pause();
}

void
ReasonEngine::resume()
{
    queue_.resume();
}

bool
ReasonEngine::drain(uint64_t deadlineNs)
{
    queue_.beginDrain();
    return queue_.drainWait(steadyNowNs() + deadlineNs);
}

EngineStats
ReasonEngine::stats() const
{
    return queue_.stats();
}

RequestHandle
ReasonEngine::enqueue(const std::shared_ptr<Request> &request)
{
    request->id = nextId_.fetch_add(1, std::memory_order_relaxed);
    queue_.push(request);
    return RequestHandle(request);
}

void
ReasonEngine::workerLoop(Dispatcher &disp)
{
    for (;;) {
        std::vector<std::shared_ptr<Request>> group =
            queue_.popGroup(options_.maxBatch,
                            options_.maxCoalesceWindowUs);
        if (group.empty())
            return; // shutdown
        // Fault-injection hook: a configured plan may stall this
        // dispatcher here, between pop and execution — the window in
        // which queued deadlines keep expiring.  Zero-cost when no
        // plan is installed (one relaxed atomic load).
        faultDispatchStall();
        executeGroup(disp, group);
        queue_.complete(group);
    }
}

void
ReasonEngine::executeGroup(
    Dispatcher &disp,
    const std::vector<std::shared_ptr<Request>> &group)
{
    if (group.front()->session->isProgram()) {
        // Program requests share a key only within one session; their
        // shard is exclusive (one in-flight group), so they execute
        // back to back, each exactly like a sequential REASON_execute
        // call — for any dispatcher count.
        for (const auto &r : group)
            executeProgramRequest(disp, *r);
        return;
    }
    if (group.front()->mode == REASON_MODE_APPROX) {
        executeApproxGroup(disp, group);
        return;
    }
    executeCircuitGroup(disp, group);
}

pc::CircuitEvaluator &
ReasonEngine::evaluatorFor(Dispatcher &disp,
                           const pc::FlatCircuit &flat,
                           std::shared_ptr<const pc::FlatCircuit>
                               keepAlive)
{
    auto it = disp.evaluators.find(&flat);
    if (it == disp.evaluators.end()) {
        // Bounded: in-flight requests pin their lowerings through the
        // session state, so dropping a warm evaluator is always safe.
        // Evict one victim, not the whole cache — the other warm
        // evaluators stay hot.
        if (disp.evaluators.size() >= kMaxCachedEvaluators)
            disp.evaluators.erase(disp.evaluators.begin());
        CachedEvaluator entry;
        entry.flat = std::move(keepAlive);
        entry.eval = std::make_unique<pc::CircuitEvaluator>(
            flat, disp.evalPool.get());
        it = disp.evaluators.emplace(&flat, std::move(entry)).first;
    }
    return *it->second.eval;
}

void
ReasonEngine::executeCircuitGroup(
    Dispatcher &disp,
    const std::vector<std::shared_ptr<Request>> &group)
{
    const pc::FlatCircuit &flat = *static_cast<const pc::FlatCircuit *>(
        group.front()->groupKey);
    pc::CircuitEvaluator &eval =
        evaluatorFor(disp, flat, group.front()->session->lowering);

    size_t total = 0;
    for (const auto &r : group)
        total += r->rows.size();

    // No padding needed: logLikelihoodBatch runs every row — tails
    // included — through the one canonical SIMD block kernel with
    // independent lanes, so each request's outputs are bit-identical
    // regardless of how it was coalesced.
    disp.groupRows.resize(total);
    size_t at = 0;
    for (const auto &r : group)
        for (const pc::Assignment &x : r->rows)
            disp.groupRows[at++].assign(x.begin(), x.end());

    disp.groupOut.resize(total);
    eval.logLikelihoodBatch(disp.groupRows,
                            {disp.groupOut.data(),
                             disp.groupOut.size()});

    at = 0;
    for (const auto &r : group) {
        r->outputs.assign(
            disp.groupOut.begin() + long(at),
            disp.groupOut.begin() + long(at + r->rows.size()));
        at += r->rows.size();
    }
}

pc::ApproxEvaluator &
ReasonEngine::approxEvaluatorFor(Dispatcher &disp,
                                 const pc::FlatCircuit &flat,
                                 double budget,
                                 std::shared_ptr<const pc::FlatCircuit>
                                     keepAlive)
{
    const ApproxKey key{&flat, std::bit_cast<uint64_t>(budget)};
    auto it = disp.approxEvaluators.find(key);
    if (it == disp.approxEvaluators.end()) {
        // Same bounded-cache discipline as the exact evaluators:
        // lowerings stay pinned by in-flight sessions, so evicting a
        // warm evaluator is always safe.
        if (disp.approxEvaluators.size() >= kMaxCachedEvaluators)
            disp.approxEvaluators.erase(disp.approxEvaluators.begin());
        CachedApprox entry;
        entry.flat = std::move(keepAlive);
        pc::ApproxOptions opts;
        opts.budget = budget;
        entry.eval = std::make_unique<pc::ApproxEvaluator>(flat, opts);
        it = disp.approxEvaluators.emplace(key, std::move(entry)).first;
    }
    return *it->second.eval;
}

void
ReasonEngine::executeApproxGroup(
    Dispatcher &disp,
    const std::vector<std::shared_ptr<Request>> &group)
{
    // An approx shard coalesces requests of one lowering but possibly
    // different budgets; each request runs against the evaluator built
    // for exactly its budget.  Queries are scalar and row-independent
    // (pc::ApproxEvaluator::queryBatch), so outputs and bounds are
    // bit-identical no matter how the group was coalesced — the same
    // contract as the exact tier.
    const pc::FlatCircuit &flat = *static_cast<const pc::FlatCircuit *>(
        group.front()->groupKey);
    for (const auto &r : group) {
        pc::ApproxEvaluator &eval = approxEvaluatorFor(
            disp, flat, r->accuracyBudget, r->session->lowering);
        eval.queryBatch(r->rows, disp.approxOut);
        const size_t n = r->rows.size();
        r->outputs.resize(n);
        r->boundLo.resize(n);
        r->boundHi.resize(n);
        for (size_t i = 0; i < n; ++i) {
            r->outputs[i] = disp.approxOut[i].value;
            r->boundLo[i] = disp.approxOut[i].lo;
            r->boundHi[i] = disp.approxOut[i].hi;
        }
    }
}

void
ReasonEngine::executeProgramRequest(Dispatcher &disp, Request &request)
{
    SessionState &s = *request.session;
    const double *in = request.inputs.data();
    const int batch_size = request.batchSize;
    request.outputs.resize(size_t(batch_size));

    uint64_t batch_cycles = 0;
    disp.inputRow.resize(s.numInputs);
    for (int b = 0; b < batch_size; ++b) {
        // Reused row buffer: batched serving must not allocate per item.
        disp.inputRow.assign(in + size_t(b) * s.numInputs,
                             in + size_t(b + 1) * s.numInputs);
        arch::ExecutionResult r =
            s.accel->run(s.program, disp.inputRow, /*preloaded=*/b > 0);
        request.outputs[size_t(b)] = r.rootValue;
        batch_cycles += r.cycles;
        if (b == batch_size - 1)
            request.exec = std::move(r);
    }
    request.execCycles = batch_cycles;
}

} // namespace sys
} // namespace reason
