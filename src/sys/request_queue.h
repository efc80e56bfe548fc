/**
 * @file
 * Submission queue of the async serving engine (sys::ReasonEngine):
 * request records, their lifecycle, the error-code contract shared
 * with the Listing-1 compatibility shim, and the coalescing pop that
 * turns independent queued requests into one batched evaluation.
 *
 * The queue is the synchronization hub of the engine.  Requests are
 * sharded by their coalescing key (circuit lowering fingerprint +
 * reasoning mode), each shard holds one FIFO lane per submitting
 * session, and any number of dispatcher threads pop coalesced groups:
 *
 *  - **Per-fingerprint shards.**  A popped group always comes from one
 *    shard, so a batch never mixes lowerings or modes.  Ready shards
 *    are served oldest-first, and a shard with remaining work is
 *    re-readied behind the others, so no fingerprint monopolizes the
 *    dispatchers.
 *  - **Session-fair lanes.**  Within a shard the gather round-robins
 *    across session lanes, so a tenant flooding one session cannot
 *    starve light tenants sharing the fingerprint: every lane
 *    contributes to every batch it has work for.
 *  - **Bounded admission.**  With a nonzero capacity the queue holds at
 *    most `capacity` pending requests.  Overload either rejects the new
 *    request or sheds the globally oldest queued one (QueuePolicy),
 *    completing the victim with REASON_ERR_OVERLOAD — clients always
 *    get an answer, the queue never grows without bound.
 *  - **Exclusive shards.**  Program (Listing-1) requests mutate their
 *    session's accelerator state, so their shards admit one in-flight
 *    group at a time; circuit shards are stateless and may be drained
 *    by several dispatchers concurrently.
 *  - **Linger autotuning.**  The queue tracks EWMAs of request
 *    inter-arrival time and batch execution time; when enabled, the
 *    coalesce linger window is derived from them (wait only while the
 *    expected fill time is cheap next to the execution it amortizes).
 *
 * Every state transition happens under one mutex so poll/wait observe
 * a consistent lifecycle, and shedding/fairness decisions are atomic
 * with respect to submission.
 */

#ifndef REASON_SYS_REQUEST_QUEUE_H
#define REASON_SYS_REQUEST_QUEUE_H

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "arch/accelerator.h"
#include "pc/pc.h"

namespace reason {
namespace sys {

/** Execution status returned by REASON_check_status. */
enum ReasonStatus : int { REASON_IDLE = 0, REASON_EXECUTION = 1 };

/** Reasoning mode selector (Sec. V-B). */
enum ReasonMode : int
{
    REASON_MODE_PROBABILISTIC = 0,
    REASON_MODE_SYMBOLIC = 1,
    REASON_MODE_SPMSPM = 2,
    /**
     * Approximate/anytime circuit tier: the request carries an
     * accuracy budget and its results carry certified error bounds
     * (pc::ApproxEvaluator).  Only valid for circuit sessions; the
     * engine selects this mode itself when a submission's budget is
     * positive.
     */
    REASON_MODE_APPROX = 3
};

/**
 * Error codes of the serving engine and the Listing-1 interface
 * (REASON_execute returns these directly; engine submissions surface
 * them through Request::error).  All failures are negative and
 * distinct; REASON_OK is zero.
 */
enum ReasonError : int
{
    REASON_OK = 0,
    /** batch_size <= 0, or an empty row set. */
    REASON_ERR_BAD_BATCH = -1,
    /** Null neural or symbolic buffer. */
    REASON_ERR_NULL_BUFFER = -2,
    /** reasoning_mode is not a ReasonMode value. */
    REASON_ERR_BAD_MODE = -3,
    /** batch_id was already executed (duplicate resubmission). */
    REASON_ERR_DUPLICATE_BATCH = -4,
    /** An assignment row is too short or holds an out-of-range value. */
    REASON_ERR_BAD_ASSIGNMENT = -5,
    /** Submission kind does not match the session kind (or no session). */
    REASON_ERR_WRONG_SESSION = -6,
    /** Engine shut down before the request could execute. */
    REASON_ERR_SHUTDOWN = -7,
    /**
     * Bounded queue at capacity: this submission was rejected
     * (QueuePolicy::RejectNew) or a queued request was shed to admit a
     * newer one (QueuePolicy::ShedOldest).
     */
    REASON_ERR_OVERLOAD = -8,
    /**
     * Invalid accuracy budget: NaN, infinite, negative — or, at the
     * wire layer, above the server's configured --max-budget cap.
     */
    REASON_ERR_BAD_BUDGET = -9,
    /**
     * The request's deadline passed before a dispatcher picked it up
     * (expired at pop time or by a lane sweep), or a drain deadline
     * expired with the request still queued.  A request that began
     * executing always completes normally — deadlines never interrupt
     * evaluation, so non-expired results stay bit-identical.
     */
    REASON_ERR_DEADLINE_EXCEEDED = -10,
    /** The client cancelled the request while it was still queued. */
    REASON_ERR_CANCELLED = -11,
    /**
     * The engine is draining (ReasonEngine::drain): admission is
     * closed, queued work is being finished, new submissions are
     * refused.  Distinct from REASON_ERR_SHUTDOWN so clients can tell
     * "retry elsewhere / later" from "the engine died under me".
     */
    REASON_ERR_SHUTTING_DOWN = -12
};

/** What a full bounded queue does with the overflow. */
enum class QueuePolicy : uint8_t
{
    /** Complete the *new* submission with REASON_ERR_OVERLOAD. */
    RejectNew = 0,
    /**
     * Admit the new submission and complete the globally *oldest*
     * still-queued request with REASON_ERR_OVERLOAD instead (fresh
     * work is worth more than stale work under overload).
     */
    ShedOldest = 1
};

/**
 * Serving knobs of a ReasonEngine and its queue — the one serving
 * configuration (ReasonRuntime forwards it unchanged; the reason_cli
 * serve and bench_eval flags set its fields).
 */
struct ServeOptions
{
    /**
     * Most rows one coalesced evaluation may carry.  Larger batches
     * amortize the circuit traversal across more SoA rows; 0 behaves
     * as 1 (no coalescing).  The cap bounds *coalescing*, not single
     * requests: one submitBatch larger than maxBatch still executes
     * as one evaluation (it just never gains co-riders), so clients
     * wanting bounded per-dispatch work must split bulk queries
     * themselves — results are bit-identical either way.
     */
    unsigned maxBatch = 64;
    /**
     * How long (microseconds) a dispatch lingers for same-key late
     * arrivals when the group is below maxBatch.  0 (default)
     * dispatches greedily: coalescing then comes purely from backlog,
     * which adds no idle latency to lightly loaded engines.
     */
    unsigned maxCoalesceWindowUs = 0;
    /**
     * Worker count of the engine's evaluation pool (the blocked SoA
     * row-block parallelism of CircuitEvaluator).  0 selects hardware
     * concurrency.  Results are bit-identical for any value.
     */
    unsigned serveThreads = 1;
    /**
     * Dispatcher threads draining the sharded queue.  Each dispatcher
     * owns a private evaluator cache and evaluation pool, so circuit
     * shards can execute concurrently; 0 behaves as 1.  Results are
     * bit-identical for any count.
     */
    unsigned dispatchers = 1;
    /**
     * Max requests pending in the queue; 0 = unbounded.  At capacity
     * the engine sheds per `queuePolicy` with REASON_ERR_OVERLOAD
     * instead of letting latency grow without bound.
     */
    size_t queueCapacity = 0;
    /** What a full queue does with the overflow. */
    QueuePolicy queuePolicy = QueuePolicy::RejectNew;
    /**
     * Autotune the coalesce linger window from EWMAs of request
     * inter-arrival time and batch execution time; the configured
     * maxCoalesceWindowUs then acts as the cap (default cap when 0).
     */
    bool autoLingerWindow = false;
    /**
     * Pin dispatcher threads and evaluation-pool workers to cores
     * (best effort; a no-op on platforms without affinity support).
     */
    bool pinThreads = false;
};

/** Lifecycle of a request inside the engine. */
enum class RequestState : uint8_t
{
    /** Waiting in the submission queue. */
    Queued,
    /** Popped by a dispatcher, evaluation in flight. */
    Running,
    /** Finished: outputs (or error) are final, waiters are released. */
    Done
};

struct SessionState;
class RequestQueue;

/**
 * Steady-clock nanoseconds since the clock epoch — the timebase of
 * every Request timestamp and deadline (deadlines are absolute values
 * on this clock, so they survive queue hops without re-anchoring).
 */
inline uint64_t
steadyNowNs()
{
    return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now()
                            .time_since_epoch())
                        .count());
}

/**
 * One serving request.  Owned jointly by the submitting RequestHandle
 * and the queue/dispatcher (shared_ptr), so a handle stays readable
 * even after the engine is destroyed.
 *
 * Mutable fields are written under the RequestQueue mutex (state,
 * timestamps) or exclusively by the dispatcher while Running (outputs,
 * exec, error); clients must read them only after poll()/wait()
 * reports completion.
 */
struct Request
{
    uint64_t id = 0;
    /**
     * Coalescing and sharding key: requests with the same key (and
     * mode) may share one batched evaluation and live in one dispatch
     * shard.  Circuit sessions use the cached lowering pointer
     * (structural fingerprint identity via pc::cachedLowering);
     * program sessions use their private session state, so Listing-1
     * batches never coalesce across sessions.
     */
    const void *groupKey = nullptr;
    ReasonMode mode = REASON_MODE_PROBABILISTIC;
    /**
     * Stateful execution: the shard admits one in-flight group at a
     * time (program sessions mutate accelerator state).
     */
    bool exclusive = false;
    /** Owning session; keeps the lowering / accelerator alive. */
    std::shared_ptr<SessionState> session;

    /** Circuit-mode payload: one assignment per requested row. */
    std::vector<pc::Assignment> rows;
    /**
     * Approximate tier (REASON_MODE_APPROX): the accuracy budget the
     * submission carried (pc::ApproxOptions::budget).  Part of the
     * coalescing identity — the dispatcher evaluates each request
     * with an evaluator built for exactly this budget.
     */
    double accuracyBudget = 0.0;
    /** Program-mode payload: row-major inputs, batchSize rows. */
    std::vector<double> inputs;
    int batchSize = 0;

    /** One output per row: log-likelihoods (circuit) or root values. */
    std::vector<double> outputs;
    /**
     * Approximate tier: certified per-row interval endpoints,
     * boundLo[r] <= exact log-likelihood of row r <= boundHi[r].
     * Empty for exact-tier and program requests.
     */
    std::vector<double> boundLo;
    std::vector<double> boundHi;
    /** Program mode: execution result of the final row. */
    arch::ExecutionResult exec;
    /** Program mode: simulated cycles summed over the batch rows. */
    uint64_t execCycles = 0;
    /** REASON_OK or a ReasonError; final once state is Done. */
    int error = REASON_OK;

    /**
     * Absolute steady-clock deadline (steadyNowNs timebase); 0 = no
     * deadline.  Enforced while the request is *queued* only: a
     * dispatcher drops expired requests at pop time and the queue
     * sweeps aged lanes, completing victims with
     * REASON_ERR_DEADLINE_EXCEEDED.  Once Running, the request always
     * completes normally (bit-identity of non-expired results).
     */
    uint64_t deadlineNs = 0;

    RequestState state = RequestState::Queued;
    /** steady_clock nanoseconds; zero until the stage is reached. */
    uint64_t enqueuedNs = 0;
    uint64_t startedNs = 0;
    uint64_t completedNs = 0;

    /**
     * The queue this request was pushed into (set under the queue
     * mutex at push; null for requests rejected at submit).  Enables
     * RequestHandle::cancel() — valid only while the owning engine is
     * alive, the same lifetime contract as wait/poll.
     */
    RequestQueue *ownerQueue = nullptr;

    /** Rows requested (either payload kind). */
    size_t numRows() const
    {
        return rows.empty() ? size_t(batchSize) : rows.size();
    }
    /** Enqueue-to-completion latency; meaningful once Done. */
    uint64_t latencyNs() const { return completedNs - enqueuedNs; }
};

/**
 * Serving statistics since engine construction: the queue's own
 * snapshot (RequestQueue::stats), returned as is by
 * ReasonEngine::stats.  Counters are monotone; means and percentiles
 * are computed at snapshot time.
 */
struct EngineStats
{
    /** Requests admitted (excludes validation and RejectNew rejects). */
    uint64_t requests = 0;
    /** Rows across admitted requests. */
    uint64_t rows = 0;
    /** Coalesced groups handed to dispatchers. */
    uint64_t batches = 0;
    /** Requests completed (including shutdown/overload failures). */
    uint64_t completed = 0;
    /**
     * Requests that ran to completion through a dispatcher — the
     * denominator of the latency/queue-time means and the reservoir
     * population.  Shed, rejected, expired, cancelled, and
     * shutdown-failed requests count in `completed` only, so overload
     * cannot bias the means low.
     */
    uint64_t executed = 0;
    /** Mean rows per dispatched batch. */
    double meanBatchOccupancy = 0.0;
    /** Deepest pending-request count observed at admission time. */
    uint64_t maxQueueDepth = 0;
    /** Mean enqueue-to-dispatch wait over executed requests (ms). */
    double meanQueueMs = 0.0;
    /** Mean enqueue-to-completion latency over executed requests (ms). */
    double meanLatencyMs = 0.0;
    /** Requests completed with REASON_ERR_OVERLOAD (both policies). */
    uint64_t shedRequests = 0;
    /**
     * Requests completed with REASON_ERR_DEADLINE_EXCEEDED (deadline
     * passed while queued, or drain-deadline expiry).
     */
    uint64_t expired = 0;
    /** Requests completed with REASON_ERR_CANCELLED (client cancel). */
    uint64_t cancelled = 0;
    /**
     * Latency percentiles over executed requests, from a fixed-size
     * reservoir sample — the same estimate bench_eval reports.
     */
    double p50LatencyMs = 0.0;
    double p99LatencyMs = 0.0;
    /** Linger-autotune telemetry (EWMAs; zero until enough traffic). */
    double ewmaInterArrivalUs = 0.0;
    double ewmaExecUs = 0.0;
    /** Most recent effective linger window a pop used. */
    double lastLingerUs = 0.0;
};

/** Latency samples kept for the p50/p99 estimate (Algorithm R). */
inline constexpr size_t kLatencyReservoirSize = 2048;

/**
 * Thread-safe sharded submission queue with cross-request coalescing,
 * bounded admission, and session-fair scheduling (see file comment for
 * the full topology).
 *
 * Clients push requests and wait on completion; any number of
 * dispatchers pop coalesced groups concurrently.  popGroup picks the
 * oldest ready shard, gathers up to `maxRows` rows round-robin across
 * its session lanes, and optionally lingers for late arrivals before
 * dispatching.  The first gathered request is always admitted even if
 * it alone exceeds maxRows (oversized explicit batches still run).
 */
class RequestQueue
{
  public:
    explicit RequestQueue(const ServeOptions &options = {});
    RequestQueue(const RequestQueue &) = delete;
    RequestQueue &operator=(const RequestQueue &) = delete;

    /**
     * Enqueue a request (state must be Queued).  After shutdown() the
     * request is immediately completed with REASON_ERR_SHUTDOWN; at
     * capacity it is rejected — or an older request shed — with
     * REASON_ERR_OVERLOAD per the configured policy.  Never blocks.
     */
    void push(const std::shared_ptr<Request> &request);

    /**
     * Block until work is available (or shutdown), then pop one
     * coalesced group and mark it Running.  Returns an empty vector
     * only at shutdown — the dispatcher's exit signal.  Safe to call
     * from any number of dispatcher threads; concurrent pops always
     * receive disjoint groups.
     */
    std::vector<std::shared_ptr<Request>> popGroup(size_t maxRows,
                                                   unsigned lingerUs);

    /**
     * Mark an executed group Done and release its waiters.  For
     * exclusive shards this also re-opens the shard for the next
     * group.
     */
    void complete(const std::vector<std::shared_ptr<Request>> &group);

    /** True once the request has completed (never blocks). */
    bool pollDone(const Request &request) const;

    /** Block until the request completes. */
    void waitDone(const Request &request) const;

    /**
     * Remove a still-queued request, completing it with
     * REASON_ERR_CANCELLED.  Returns false when the request is already
     * Running or Done (executing requests always complete normally) or
     * was never queued here — cancellation never yields a torn result.
     */
    bool cancel(const std::shared_ptr<Request> &request);

    /**
     * Fail every queued request whose deadline has passed with
     * REASON_ERR_DEADLINE_EXCEEDED (the aged-lane sweep; also run
     * internally at pop time and from deadline-aware waits).  Returns
     * the number of requests expired.
     */
    size_t sweepExpired();

    /**
     * Close admission: every subsequent push completes immediately
     * with REASON_ERR_SHUTTING_DOWN.  Dispatching continues (a pause
     * is released) so queued work can finish — the first half of a
     * graceful drain.
     */
    void beginDrain();

    /**
     * Block until all queued and in-flight work has completed, or
     * until `deadlineNs` (absolute, steadyNowNs timebase).  At the
     * deadline, still-queued requests are expired with
     * REASON_ERR_DEADLINE_EXCEEDED; in-flight groups are always waited
     * out (they complete normally).  Returns true when every queued
     * request finished without expiry.  Call beginDrain() first or new
     * work can starve the wait.
     */
    bool drainWait(uint64_t deadlineNs);

    /**
     * Stop dispatching: pending requests are completed with
     * REASON_ERR_SHUTDOWN, waiters and dispatchers are woken.
     * A group already popped may still be complete()d normally.
     */
    void shutdown();

    /** Hold dispatching (queued work accumulates and coalesces). */
    void pause();
    /** Resume dispatching after pause(). */
    void resume();

    EngineStats stats() const;

  private:
    /** One session's FIFO of queued requests within a shard. */
    struct Lane
    {
        const void *session = nullptr;
        std::deque<std::shared_ptr<Request>> queue;
    };

    /** All queued work sharing one (groupKey, mode) coalescing key. */
    struct Shard
    {
        std::vector<Lane> lanes;
        /** Next lane index the gather serves (round-robin). */
        size_t cursor = 0;
        /** Queued requests across all lanes. */
        size_t pendingRequests = 0;
        /** Program shard: one in-flight group at a time. */
        bool exclusive = false;
        /** A dispatcher holds this shard (gather/linger/exclusive). */
        bool inService = false;
        /** Shard is queued in ready_. */
        bool inReady = false;
    };

    using ShardKey = std::pair<const void *, int>;
    struct ShardKeyHash
    {
        size_t operator()(const ShardKey &k) const
        {
            return std::hash<const void *>()(k.first) ^
                   (std::hash<int>()(k.second) * 0x9e3779b97f4a7c15ull);
        }
    };
    using ShardMap = std::unordered_map<ShardKey, Shard, ShardKeyHash>;

    void readyShardLocked(const ShardKey &key, Shard &shard);
    void eraseShardIfIdleLocked(ShardMap::iterator it);
    /** Gather up to maxRows into group, round-robin over lanes. */
    void gatherLocked(Shard &shard,
                      std::vector<std::shared_ptr<Request>> &group,
                      size_t &rowCount, size_t maxRows);
    /** Drop the globally oldest queued request (ShedOldest). */
    bool shedOldestLocked();
    /** Complete a request that never ran (overload/shutdown/expiry). */
    void failLocked(const std::shared_ptr<Request> &request, int error,
                    uint64_t now);
    /** Remove `request` from its lane; false if not found queued. */
    bool removeQueuedLocked(const std::shared_ptr<Request> &request);
    /** Expire queued requests past `now`; recompute minDeadlineNs_. */
    size_t sweepExpiredLocked(uint64_t now);
    /** Fail every queued request with `error` (drain expiry). */
    void failAllQueuedLocked(int error, uint64_t now);
    /** Track the earliest pending deadline for deadline-aware waits. */
    void noteDeadlineLocked(uint64_t deadlineNs);
    /** Effective linger window for a pop that gathered rowCount rows. */
    unsigned effectiveLingerLocked(size_t rowCount, size_t maxRows,
                                   unsigned lingerUs);
    void recordLatencyLocked(double latencyMs);

    ServeOptions options_;
    mutable std::mutex mutex_;
    /** Wakes dispatchers: new work, re-readied shard, resume, shutdown. */
    std::condition_variable workCv_;
    /** Wakes client waiters: request completion, shutdown. */
    mutable std::condition_variable doneCv_;

    ShardMap shards_;
    /** Shards with queued work and no holder, oldest readied first. */
    std::deque<ShardKey> ready_;
    /**
     * Admission-ordered view of queued requests, kept only under
     * QueuePolicy::ShedOldest; completed entries are pruned lazily.
     */
    std::deque<std::shared_ptr<Request>> age_;
    /** Queued requests across all shards. */
    size_t totalPending_ = 0;
    /** Requests popped (Running) but not yet complete()d. */
    size_t running_ = 0;
    /**
     * Earliest deadline among queued requests, or 0 when none carry
     * one.  Maintained as a lower bound (stale removals leave it
     * conservative); recomputed exactly by every sweep.  Lets
     * dispatcher waits wake at the next expiry instead of hanging.
     */
    uint64_t minDeadlineNs_ = 0;
    bool shutdown_ = false;
    bool paused_ = false;
    /** Admission closed by beginDrain(). */
    bool draining_ = false;

    /** Monotone counters; stats() fills in the derived fields. */
    EngineStats stats_;
    /** Running totals behind the occupancy and latency means. */
    uint64_t batchedRows_ = 0;
    uint64_t totalQueueNs_ = 0;
    uint64_t totalLatencyNs_ = 0;

    /** EWMA state for linger autotuning (nanoseconds). */
    uint64_t lastArrivalNs_ = 0;
    double ewmaInterArrivalNs_ = 0.0;
    double ewmaExecNs_ = 0.0;
    double lastLingerUs_ = 0.0;

    /** Fixed-size latency reservoir (Algorithm R, LCG replacement). */
    std::vector<double> reservoir_;
    uint64_t reservoirSeen_ = 0;
    uint64_t reservoirLcg_ = 0x9e3779b97f4a7c15ull;
};

} // namespace sys
} // namespace reason

#endif // REASON_SYS_REQUEST_QUEUE_H
