#include "util/parallel.h"

#include <algorithm>
#include <memory>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace reason {
namespace util {

bool
pinCurrentThreadToCore(unsigned core)
{
#if defined(__linux__)
    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0)
        hw = 1;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(core % hw, &set);
    return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) ==
           0;
#else
    (void)core;
    return false;
#endif
}

ThreadPool::ThreadPool(unsigned threads, bool pin_threads,
                       unsigned pin_base)
    : pinThreads_(pin_threads), pinBase_(pin_base)
{
    if (threads == 0) {
        threads = std::thread::hardware_concurrency();
        if (threads == 0)
            threads = 1;
    }
    workers_.reserve(threads - 1);
    for (unsigned w = 1; w < threads; ++w)
        workers_.emplace_back([this, w] { workerLoop(w); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        shutdown_ = true;
    }
    wake_.notify_all();
    for (auto &t : workers_)
        t.join();
}

void
ThreadPool::workerLoop(unsigned worker_index)
{
    if (pinThreads_)
        pinCurrentThreadToCore(pinBase_ + worker_index);
    uint64_t seen = 0;
    for (;;) {
        RangeFn fn;
        void *ctx;
        size_t begin, end;
        unsigned chunks;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [&] {
                return shutdown_ || generation_ != seen;
            });
            if (shutdown_)
                return;
            seen = generation_;
            fn = jobFn_;
            ctx = jobCtx_;
            begin = jobBegin_;
            end = jobEnd_;
            chunks = jobChunks_;
        }
        // Chunk `worker_index` (chunk 0 belongs to the caller); workers
        // beyond the chunk count just acknowledge completion.
        if (worker_index < chunks) {
            const size_t total = end - begin;
            const size_t lo = begin + total * worker_index / chunks;
            const size_t hi = begin + total * (worker_index + 1) / chunks;
            if (lo < hi)
                fn(ctx, lo, hi, worker_index);
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (--pending_ == 0)
                done_.notify_one();
        }
    }
}

void
ThreadPool::parallelForRaw(size_t begin, size_t end, size_t min_grain,
                           RangeFn fn, void *ctx)
{
    if (end <= begin)
        return;
    const size_t total = end - begin;
    if (min_grain == 0)
        min_grain = 1;
    // Deterministic chunk count: range size and pool size only.
    size_t chunks = std::min<size_t>(numThreads(), total / min_grain);
    if (workers_.empty() || chunks <= 1) {
        fn(ctx, begin, end, 0);
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        jobFn_ = fn;
        jobCtx_ = ctx;
        jobBegin_ = begin;
        jobEnd_ = end;
        jobChunks_ = unsigned(chunks);
        pending_ = unsigned(workers_.size());
        ++generation_;
    }
    wake_.notify_all();
    // The caller is worker 0 and always takes the first chunk.
    fn(ctx, begin, begin + total / chunks, 0);
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [&] { return pending_ == 0; });
}

namespace {

std::unique_ptr<ThreadPool> g_pool;      // lazily created
unsigned g_threads = 0;                  // 0 = hardware concurrency
std::mutex g_pool_mutex;

} // namespace

ThreadPool &
globalThreadPool()
{
    std::lock_guard<std::mutex> lock(g_pool_mutex);
    if (!g_pool)
        g_pool = std::make_unique<ThreadPool>(g_threads);
    return *g_pool;
}

void
setGlobalThreads(unsigned n)
{
    std::lock_guard<std::mutex> lock(g_pool_mutex);
    g_threads = n;
    g_pool.reset(); // recreated lazily with the new count
}

bool
parseCount(const std::string &text, uint64_t min_value,
           uint64_t max_value, uint64_t *out)
{
    if (text.empty())
        return false;
    uint64_t value = 0;
    for (char ch : text) {
        if (ch < '0' || ch > '9')
            return false;
        const uint64_t digit = uint64_t(ch - '0');
        if (digit > max_value || value > (max_value - digit) / 10)
            return false; // past max_value (overflow included)
        value = value * 10 + digit;
    }
    if (value < min_value)
        return false;
    *out = value;
    return true;
}

unsigned
resolveShardCount(unsigned shards, size_t samples)
{
    if (shards == 0) {
        // Sharding *replaces* the per-sample downward wavefront, so a
        // dataset smaller than the target shard count keeps one shard
        // (and the wavefront) instead of degenerating into a few
        // serial-pool slices.
        shards = samples >= kAutoReductionShards ? kAutoReductionShards
                                                 : 1;
    }
    if (samples < shards)
        shards = unsigned(samples);
    return std::max(shards, 1u);
}

unsigned
globalThreads()
{
    std::lock_guard<std::mutex> lock(g_pool_mutex);
    if (g_pool)
        return g_pool->numThreads();
    if (g_threads != 0)
        return g_threads;
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

} // namespace util
} // namespace reason
