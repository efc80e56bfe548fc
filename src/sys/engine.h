/**
 * @file
 * sys::ReasonEngine — the asynchronous batch-serving front door of the
 * runtime (the production successor of the Listing-1 polling loop).
 *
 * An engine owns a sharded submission queue (sys::RequestQueue) and N
 * dispatcher threads, each with a private evaluator cache and
 * util::ThreadPool evaluation pool.  Clients open *sessions* and
 * submit requests; dispatchers drain per-key shards — circuit
 * sessions are keyed by their lowering pointer (Circuit::lowered()),
 * so sessions over the same Circuit object or its copies share
 * batches — and execute each coalesced group
 * as one blocked SoA evaluation on pc::CircuitEvaluator.  The queue
 * provides bounded admission with overload shedding, per-session
 * fairness, and optional linger autotuning (see request_queue.h, which
 * also declares the engine's ServeOptions and EngineStats: the queue
 * reads the one and produces the other).
 *
 * **Determinism contract.**  Every circuit-mode row is evaluated
 * through the one canonical SIMD block kernel of
 * pc::CircuitEvaluator::logLikelihoodBatch (tails run the same masked
 * kernel; SoA lanes are independent), so a
 * request's outputs are bit-identical no matter how it was coalesced —
 * alone, with other requests, or split across engine instances — and
 * for any serveThreads or dispatcher count and any queue policy (the
 * pool contract of flat_pc.h; dispatchers share no evaluation state).
 * Program-mode (Listing-1) requests replay the exact per-row
 * accelerator loop of the pre-engine ReasonRuntime, so their outputs
 * are bit-identical to sequential REASON_execute.
 *
 * **Thread-safety.**  Sessions and handles may be used from any
 * thread; submissions and waits from many client threads are the
 * intended pattern.  One Session object itself is safe for concurrent
 * submits (submission state is immutable; ids are atomic).  The engine
 * must outlive its sessions' *submissions* (wait/poll route through
 * the engine queue), but RequestHandle result accessors stay readable
 * after engine destruction because requests are shared-owned.
 */

#ifndef REASON_SYS_ENGINE_H
#define REASON_SYS_ENGINE_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "arch/config.h"
#include "compiler/program.h"
#include "pc/approx.h"
#include "pc/flat_pc.h"
#include "sys/request_queue.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace reason {
namespace pc {
class Circuit;
}

namespace sys {

class ReasonEngine;

/**
 * Completion token of one submission.  Cheap to copy; shares ownership
 * of the underlying request, so results remain readable for the
 * handle's lifetime.  Use Session::poll/wait to synchronize; call the
 * result accessors only after completion has been observed (poll()
 * returned true, wait() returned, or the engine was destroyed).
 */
class RequestHandle
{
  public:
    RequestHandle() = default;

    bool valid() const { return request_ != nullptr; }
    uint64_t id() const { return request_ ? request_->id : 0; }

    /**
     * Cancel the request if it is still queued, completing it with
     * REASON_ERR_CANCELLED.  Returns true on success; false when the
     * request already started executing (it will complete normally —
     * cancellation never yields a torn result), already finished, or
     * was rejected at submit.  Valid only while the engine is alive
     * (the same lifetime contract as poll/wait).
     */
    bool cancel()
    {
        return request_ != nullptr &&
               request_->ownerQueue != nullptr &&
               request_->ownerQueue->cancel(request_);
    }

    /** REASON_OK or the ReasonError the request failed with. */
    int error() const { return checked().error; }
    /** Per-row outputs (log-likelihoods / root values). */
    const std::vector<double> &outputs() const
    {
        return checked().outputs;
    }
    /**
     * Approximate tier: certified per-row interval endpoints,
     * boundsLo()[r] <= exact log-likelihood <= boundsHi()[r].
     * Empty for exact-tier and program requests.
     */
    const std::vector<double> &boundsLo() const
    {
        return checked().boundLo;
    }
    const std::vector<double> &boundsHi() const
    {
        return checked().boundHi;
    }
    /** Program mode: execution result of the batch's final row. */
    const arch::ExecutionResult &execution() const
    {
        return checked().exec;
    }
    /** Program mode: simulated cycles consumed by the batch. */
    uint64_t executionCycles() const { return checked().execCycles; }
    /** Enqueue-to-completion latency in nanoseconds (0 until done). */
    uint64_t
    latencyNs() const
    {
        const Request &r = checked();
        return r.completedNs == 0 ? 0 : r.latencyNs();
    }

  private:
    const Request &checked() const
    {
        reasonAssert(request_ != nullptr,
                     "result access on an invalid handle");
        return *request_;
    }

    friend class Session;
    friend class ReasonEngine;
    explicit RequestHandle(std::shared_ptr<Request> request)
        : request_(std::move(request))
    {
    }

    std::shared_ptr<Request> request_;
};

/**
 * One client's view of the engine.  Circuit sessions submit assignment
 * rows and receive log-likelihoods; program sessions submit Listing-1
 * input batches executed on a private cycle-accurate accelerator.
 * Copyable (copies share the underlying session state).
 */
class Session
{
  public:
    Session() = default;

    bool valid() const { return engine_ != nullptr; }

    /**
     * Circuit sessions: submit many rows as one request.  Never blocks
     * and never throws; validation failures return an
     * already-completed handle carrying the ReasonError.  A request
     * always executes as one evaluation, even when it exceeds
     * ServeOptions::maxBatch (the cap bounds coalescing only); split
     * bulk queries into several requests for bounded dispatch units.
     *
     * The accuracy budget selects the tier.  Budget 0 routes to the
     * exact tier; a positive budget routes to REASON_MODE_APPROX,
     * whose results carry certified per-row bounds
     * (RequestHandle::boundsLo/boundsHi) and are bit-identical across
     * threads, batch shapes, and dispatcher counts.  NaN, infinite,
     * or negative budgets fail with REASON_ERR_BAD_BUDGET.
     *
     * `deadlineNs` is *relative* to the submit call (anchored to the
     * steady clock here; 0 = no deadline).  A request whose deadline
     * passes while it is still queued completes with
     * REASON_ERR_DEADLINE_EXCEEDED; once a dispatcher picks it up it
     * always completes normally, so answered results stay
     * bit-identical to deadline-less runs.
     */
    RequestHandle submitBatch(std::vector<pc::Assignment> rows,
                              double accuracyBudget = 0.0,
                              uint64_t deadlineNs = 0);

    /** Circuit sessions: submitBatch of one assignment row. */
    RequestHandle submit(pc::Assignment row, double accuracyBudget = 0.0,
                         uint64_t deadlineNs = 0);

    /**
     * Program sessions: submit a Listing-1 batch (row-major inputs,
     * batch_size rows of the program's input arity).  `mode` must be a
     * ReasonMode value.
     */
    RequestHandle submitProgram(int batch_size, const double *inputs,
                                int mode);

    /** True once the request completed (success or error). */
    bool poll(const RequestHandle &handle) const;

    /**
     * Block until the request completes; returns the completed request
     * as a shared owner, so the result stays readable even when the
     * handle was a temporary and the engine has moved on.  Waiting on
     * an invalid handle is an error.
     */
    std::shared_ptr<const Request> wait(const RequestHandle &handle) const;

  private:
    friend class ReasonEngine;
    Session(ReasonEngine *engine, std::shared_ptr<SessionState> state)
        : engine_(engine), state_(std::move(state))
    {
    }

    RequestHandle finishRejected(std::shared_ptr<Request> request,
                                 int error) const;

    ReasonEngine *engine_ = nullptr;
    std::shared_ptr<SessionState> state_;
};

/**
 * The asynchronous serving engine.  See the file comment for the
 * execution and determinism model.  Destroying the engine fails
 * still-queued requests with REASON_ERR_SHUTDOWN, finishes the groups
 * in flight, and joins every dispatcher.
 */
class ReasonEngine
{
  public:
    explicit ReasonEngine(const ServeOptions &options = {});
    ~ReasonEngine();

    ReasonEngine(const ReasonEngine &) = delete;
    ReasonEngine &operator=(const ReasonEngine &) = delete;

    /**
     * Open a serving session over a probabilistic circuit.  The
     * lowering is the circuit's memoized Circuit::lowered(), so
     * sessions over the same Circuit object or its copies share one
     * lowering — and therefore one coalescing key.  The circuit itself
     * is not retained and may be destroyed after the call.
     */
    Session createSession(const pc::Circuit &circuit);

    /**
     * Open a serving session over an already-flat circuit (a direct
     * d-DNNF lowering or a streamed `.nnf` load — pc/from_logic).  No
     * heap Circuit ever exists on this path, so there is nothing to
     * cache-key by: sessions sharing one FlatCircuit object share one
     * coalescing key; distinct objects never coalesce even when
     * structurally equal.  The engine holds a reference for the
     * session's lifetime.
     */
    Session createSession(std::shared_ptr<const pc::FlatCircuit> lowering);

    /**
     * Open a Listing-1 session: the compiled program runs on a private
     * cycle-accurate accelerator, one row at a time, exactly as the
     * pre-engine ReasonRuntime executed it.
     */
    Session createSession(const arch::ArchConfig &config,
                          compiler::Program program);

    /**
     * Hold dispatching; queued submissions accumulate (and coalesce).
     * Called before the first submit, it makes coalescing
     * deterministic rather than arrival-timing dependent.
     */
    void pause();
    /** Release a pause(). */
    void resume();

    /**
     * Graceful drain: close admission (subsequent submissions complete
     * immediately with REASON_ERR_SHUTTING_DOWN), release any pause,
     * finish queued work within `deadlineNs` (relative to the call;
     * 0 = expire everything still queued right away), then expire the
     * rest with REASON_ERR_DEADLINE_EXCEEDED.  In-flight groups are
     * always waited out — they complete normally.  Returns true when
     * every queued request finished without expiry.  The engine stays
     * alive (handles remain readable; destruction still does the final
     * shutdown); drain is one-way and idempotent.
     */
    bool drain(uint64_t deadlineNs);

    EngineStats stats() const;
    const ServeOptions &options() const { return options_; }

  private:
    friend class Session;

    struct CachedEvaluator
    {
        std::shared_ptr<const pc::FlatCircuit> flat;
        std::unique_ptr<pc::CircuitEvaluator> eval;
    };

    /**
     * Approximate-tier cache key: one evaluator per (lowering,
     * budget).  The budget participates as its IEEE-754 bit pattern
     * so distinct budgets never alias (and -0.0 != +0.0 never
     * matters: submission validation routes budget 0 to the exact
     * tier).
     */
    struct ApproxKey
    {
        const pc::FlatCircuit *flat = nullptr;
        uint64_t budgetBits = 0;
        bool operator==(const ApproxKey &o) const
        {
            return flat == o.flat && budgetBits == o.budgetBits;
        }
    };
    struct ApproxKeyHash
    {
        size_t operator()(const ApproxKey &k) const
        {
            return std::hash<const void *>()(k.flat) ^
                   (std::hash<uint64_t>()(k.budgetBits) *
                    0x9e3779b97f4a7c15ull);
        }
    };
    struct CachedApprox
    {
        std::shared_ptr<const pc::FlatCircuit> flat;
        std::unique_ptr<pc::ApproxEvaluator> eval;
    };

    /**
     * Per-dispatcher private state: evaluator cache, reused scratch,
     * and the evaluation pool.  Touched only by the owning dispatcher
     * thread, so dispatchers never share evaluation state — the basis
     * of the bit-identity-for-any-dispatcher-count contract.
     */
    struct Dispatcher
    {
        std::unordered_map<const pc::FlatCircuit *, CachedEvaluator>
            evaluators;
        /** Approximate-tier evaluators, keyed (lowering, budget). */
        std::unordered_map<ApproxKey, CachedApprox, ApproxKeyHash>
            approxEvaluators;
        /** Reused approx result scratch. */
        std::vector<pc::ApproxResult> approxOut;
        /** Reused group scratch (rows, outputs) — no per-batch
         *  allocation once warm. */
        std::vector<pc::Assignment> groupRows;
        std::vector<double> groupOut;
        /** Program-mode reused input row (the Listing-1 alloc hoist). */
        std::vector<double> inputRow;
        std::unique_ptr<util::ThreadPool> evalPool;
        /** First core of this dispatcher's pin block (pinThreads). */
        unsigned pinCore = 0;
        std::thread thread;
    };

    void workerLoop(Dispatcher &disp);
    void executeGroup(Dispatcher &disp,
                      const std::vector<std::shared_ptr<Request>> &group);
    void executeCircuitGroup(
        Dispatcher &disp,
        const std::vector<std::shared_ptr<Request>> &group);
    void executeApproxGroup(
        Dispatcher &disp,
        const std::vector<std::shared_ptr<Request>> &group);
    void executeProgramRequest(Dispatcher &disp, Request &request);
    pc::CircuitEvaluator &evaluatorFor(Dispatcher &disp,
                                       const pc::FlatCircuit &flat,
                                       std::shared_ptr<const pc::FlatCircuit>
                                           keepAlive);
    pc::ApproxEvaluator &approxEvaluatorFor(
        Dispatcher &disp, const pc::FlatCircuit &flat, double budget,
        std::shared_ptr<const pc::FlatCircuit> keepAlive);
    RequestHandle enqueue(const std::shared_ptr<Request> &request);

    ServeOptions options_;
    RequestQueue queue_;
    std::atomic<uint64_t> nextId_{1};
    std::vector<std::unique_ptr<Dispatcher>> dispatchers_;
};

} // namespace sys
} // namespace reason

#endif // REASON_SYS_ENGINE_H
