/**
 * @file
 * Minimal reusable thread pool with a deterministic parallel-for, the
 * software backbone of wavefront (level-parallel) execution in the flat
 * kernel engines (core/flat.h, pc/flat_pc.h).
 *
 * Design contract, relied on by every flat evaluator:
 *
 *  - **Deterministic partitioning.**  `parallelFor(begin, end, ...)`
 *    splits the index range into at most numThreads() *contiguous*
 *    chunks whose boundaries depend only on the range size and the
 *    thread count — never on scheduling races.  Chunk i is always
 *    executed by worker i (worker 0 is the calling thread), so
 *    per-worker scratch buffers are reused stably across calls.
 *  - **No hidden reductions.**  The pool only runs disjoint index
 *    ranges; all accumulation policy stays in the caller, which is how
 *    the flat engines guarantee bit-identical results for any thread
 *    count (each output cell has exactly one writer and an unchanged
 *    floating-point expression).
 *  - **Inline fallback.**  Ranges smaller than twice `min_grain` (and
 *    all work on a 1-thread pool) run inline on the caller with zero
 *    synchronization, so sprinkling parallelFor over small levels is
 *    free.
 *
 * Thread-safety: a ThreadPool may be shared by many evaluators, but
 * parallelFor is *not* reentrant — only one parallelFor may be active
 * on a pool at a time (nested or concurrent calls from worker threads
 * must use a different pool or run inline).  The global pool accessors
 * follow the setLogLevel convention: configure once at startup.
 */

#ifndef REASON_UTIL_PARALLEL_H
#define REASON_UTIL_PARALLEL_H

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace reason {
namespace util {

class ThreadPool
{
  public:
    /**
     * Create a pool with `threads` total workers including the calling
     * thread (so `threads - 1` OS threads are spawned).  `threads == 0`
     * uses std::thread::hardware_concurrency().  With `pin_threads`,
     * each spawned worker pins itself to core `(pin_base +
     * worker_index) mod hardware_concurrency` (best effort — see
     * pinCurrentThreadToCore; the calling thread is never pinned by
     * the pool).  Owners of several pools pass distinct `pin_base`
     * offsets so pools occupy disjoint core blocks instead of all
     * stacking on cores 0..threads-1 (see ReasonEngine).
     */
    explicit ThreadPool(unsigned threads = 0, bool pin_threads = false,
                        unsigned pin_base = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total workers, including the calling thread; always >= 1. */
    unsigned numThreads() const
    {
        return unsigned(workers_.size()) + 1;
    }

    /** Raw chunk callback: [begin, end) slice plus the worker index. */
    using RangeFn = void (*)(void *ctx, size_t begin, size_t end,
                             unsigned worker);

    /**
     * Run `fn` over [begin, end) split into deterministic contiguous
     * chunks, one per participating worker; blocks until every chunk
     * has finished.  At most `(end - begin) / min_grain` workers
     * participate so no chunk is smaller than `min_grain` (the whole
     * range runs inline on the caller when that limit is 1).
     */
    void parallelForRaw(size_t begin, size_t end, size_t min_grain,
                        RangeFn fn, void *ctx);

    /** Typed wrapper: f(chunk_begin, chunk_end, worker_index). */
    template <typename F>
    void
    parallelFor(size_t begin, size_t end, size_t min_grain, F &&f)
    {
        parallelForRaw(
            begin, end, min_grain,
            [](void *ctx, size_t b, size_t e, unsigned w) {
                (*static_cast<std::remove_reference_t<F> *>(ctx))(b, e, w);
            },
            &f);
    }

  private:
    void workerLoop(unsigned worker_index);

    std::vector<std::thread> workers_;
    std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable done_;
    /** Monotone job counter; workers run one job per increment. */
    uint64_t generation_ = 0;
    /** Workers still to finish the current job (or acknowledge skip). */
    unsigned pending_ = 0;
    bool shutdown_ = false;
    bool pinThreads_ = false;
    /** First core of this pool's pin block (worker w -> base + w). */
    unsigned pinBase_ = 0;
    /** Current job (valid while pending_ > 0). */
    RangeFn jobFn_ = nullptr;
    void *jobCtx_ = nullptr;
    size_t jobBegin_ = 0;
    size_t jobEnd_ = 0;
    unsigned jobChunks_ = 0;
};

/**
 * Process-wide evaluation pool used by the flat engines when no pool is
 * passed explicitly.  Created lazily with the thread count from
 * setGlobalThreads (default: hardware concurrency).
 */
ThreadPool &globalThreadPool();

/**
 * Set the worker count of the global pool (the `--threads` knob of the
 * CLI and bench_eval).  `n == 0` restores the hardware-concurrency
 * default.  Recreates the pool; call at startup or between evaluation
 * phases, never while a parallelFor is in flight.
 */
void setGlobalThreads(unsigned n);

/** Worker count the global pool has (or would be created with). */
unsigned globalThreads();

/** Largest worker count a `--threads`-style argument may request. */
inline constexpr unsigned kMaxThreads = 1024;

/**
 * Strict parser for user-supplied decimal counts (CLI and bench
 * arguments; thread counts are parseCount(text, 0, kMaxThreads)).
 * Accepts only digits with a value in [min_value, max_value]; rejects
 * empty text, signs, garbage, overflow, and out-of-range values
 * instead of wrapping or throwing, so callers can fall back to their
 * usage message.
 *
 * @return true and sets *out on success, false otherwise.
 */
bool parseCount(const std::string &text, uint64_t min_value,
                uint64_t max_value, uint64_t *out);

/**
 * Pin the calling thread to core `core mod hardware_concurrency`
 * (NUMA/affinity knob of the serving engine and thread pools).  Best
 * effort: returns true when the affinity call succeeded, false where
 * the platform has no thread-affinity support (a no-op there) or the
 * call failed.  Results never depend on pinning — it only affects
 * locality.
 */
bool pinCurrentThreadToCore(unsigned core);

/**
 * Process-wide policy for sample-sharded learning reductions (EM flow
 * accumulation, Baum-Welch statistics).  Learning entry points read
 * this policy into their per-call options at construction, so it acts
 * as a default, not an override: explicitly set option fields win.
 *
 *  - `shards == 0` (auto) shards into a *fixed* count
 *    (kAutoReductionShards) that does not depend on the worker count,
 *    so results are bit-identical for any thread count.  Datasets
 *    smaller than the target resolve to a single shard, keeping
 *    per-sample wavefront parallelism instead of degenerate tiny
 *    shards.
 *  - `shards == 1` reproduces the legacy serial accumulation exactly
 *    (single left-fold over the dataset, no reduction tree).
 *
 * Like setGlobalThreads, configure at startup or between phases.
 */
struct ReductionPolicy
{
    unsigned shards = 0;
};

ReductionPolicy reductionPolicy();
void setReductionPolicy(const ReductionPolicy &policy);

/** Fixed shard count of auto-sharding. */
inline constexpr unsigned kAutoReductionShards = 8;

/**
 * Resolve an options-level shard count against a dataset size: 0 = auto
 * per ReductionPolicy rules (one shard when the dataset is smaller than
 * the target count), and the result is clamped to [1, samples].  The
 * worker count never enters, which is what makes the merged totals
 * independent of the thread count.
 */
unsigned resolveShardCount(unsigned shards, size_t samples);

/**
 * Fixed-shape pairwise tree reduction over `shards` slots: merge(a, b)
 * is called to fold slot b into slot a, with a shape that depends only
 * on the shard count — never on thread scheduling.  Slot 0 holds the
 * final total.  With shards <= 1 this is a no-op.
 */
template <typename Merge>
inline void
treeReduce(size_t shards, Merge &&merge)
{
    for (size_t stride = 1; stride < shards; stride *= 2)
        for (size_t i = 0; i + stride < shards; i += 2 * stride)
            merge(i, i + stride);
}

/**
 * Run `fold(shard, begin, end)` over every contiguous shard slice of
 * `samples` items, shards split across pool workers (each shard folded
 * by exactly one worker).  Slice boundaries are a function of
 * (samples, shards) alone — the deterministic-placement contract every
 * sharded learning reduction relies on, kept in one place.
 */
template <typename Fold>
inline void
shardSlices(ThreadPool &pool, size_t samples, unsigned shards,
            Fold &&fold)
{
    pool.parallelFor(0, shards, 1,
                     [&](size_t b, size_t e, unsigned) {
                         for (size_t s = b; s < e; ++s)
                             fold(s, samples * s / shards,
                                  samples * (s + 1) / shards);
                     });
}

} // namespace util
} // namespace reason

#endif // REASON_UTIL_PARALLEL_H
