#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <thread>

#include "util/simd.h"

#ifndef PERFBENCH_BUILD_FLAGS
#define PERFBENCH_BUILD_FLAGS "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

void
RunResult::wrong(const char *fmt, ...)
{
    correct = false;
    std::fprintf(stderr, "perfbench: WRONG ANSWER: ");
    va_list ap;
    va_start(ap, fmt);
    std::vfprintf(stderr, fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "\n");
}

SpanLog &
RunResult::newLog(bool enabled)
{
    logs.push_back(std::make_unique<SpanLog>(enabled, uint32_t(logs.size())));
    return *logs.back();
}

std::vector<const SpanLog *>
RunResult::logViews() const
{
    std::vector<const SpanLog *> v;
    for (const auto &l : logs)
        v.push_back(l.get());
    return v;
}

void
EngineWindow::add(const reason::sys::EngineStats &before,
                  const reason::sys::EngineStats &after)
{
    // The snapshots carry means over all executed requests so far.
    latencySumMs += after.meanLatencyMs * double(after.executed) -
                    before.meanLatencyMs * double(before.executed);
    queueSumMs += after.meanQueueMs * double(after.executed) -
                  before.meanQueueMs * double(before.executed);
    executed += after.executed - before.executed;
    rows += after.rows - before.rows;
    batches += after.batches - before.batches;
}

double
EngineWindow::latencyMs() const
{
    return latencySumMs / double(std::max<uint64_t>(1, executed));
}

double
EngineWindow::queueMs() const
{
    return queueSumMs / double(std::max<uint64_t>(1, executed));
}

double
EngineWindow::batchRows() const
{
    return double(rows) / double(std::max<uint64_t>(1, batches));
}

const std::vector<MetricDef> &
metricCatalog()
{
    static const std::vector<MetricDef> catalog = {
        // End to end (untraced run), measured on every workload.
        {"setup_s", "s", "lower", true},
        {"ops_per_s", "1/s", "higher", true},
        {"p50_ms", "ms", "lower", true},
        {"tail_ms", "ms", "lower", true},
        {"p50_ms.high", "ms", "lower", true},
        {"tail_ms.high", "ms", "lower", true},
        // Per layer (traced run).  0 = the workload bypasses the layer.
        {"sys.engine.queue_ms", "ms", "lower", false},
        {"sys.engine.exec_ms", "ms", "lower", false},
        {"sys.engine.batch_rows", "rows", "higher", false},
        {"sys.engine.batches", "count", "lower", false},
        {"sys.engine.max_queue_depth", "count", "lower", false},
        {"sys.session_ms", "ms", "lower", false},
        {"sys.query_ms", "ms", "lower", false},
        {"pc.lower_ms", "ms", "lower", false},
        {"pc.eval.row_us.b1", "us", "lower", false},
        {"pc.eval.row_us.batch", "us", "lower", false},
        {"pc.eval.batch_ms", "ms", "lower", false},
        {"pc.marginals_ms", "ms", "lower", false},
        {"pc.deriv_ms", "ms", "lower", false},
        {"pc.flows_ms", "ms", "lower", false},
        {"pc.learn.iter_s", "s", "lower", false},
        {"pc.learn.estep_share", "ratio", "lower", false},
        {"logic.parse_ms", "ms", "lower", false},
        {"logic.compile_ms", "ms", "lower", false},
        {"logic.dnnf_nodes", "count", "lower", false},
        {"logic.compile_share", "ratio", "lower", false},
        {"util.parallel.loglik_speedup", "x", "higher", false},
        {"util.parallel.deriv_speedup", "x", "higher", false},
        {"util.parallel.flows_speedup", "x", "higher", false},
        {"trace.coverage", "ratio", "higher", false},
        {"trace.overhead_pct", "%", "lower", false},
    };
    return catalog;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const size_t lo = size_t(std::floor(pos));
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
roundQuantile(const std::vector<std::vector<double>> &rounds, double q)
{
    std::vector<double> v;
    for (const auto &r : rounds)
        v.push_back(quantile(r, q));
    return median(std::move(v));
}

double
pooledQuantile(const std::vector<std::vector<double>> &rounds, double q)
{
    std::vector<double> v;
    for (const auto &r : rounds)
        v.insert(v.end(), r.begin(), r.end());
    return quantile(std::move(v), q);
}

namespace {

const char *
compilerName()
{
#if defined(__clang__)
    return "clang++ " __VERSION__;
#elif defined(__GNUC__)
    return "g++ " __VERSION__;
#else
    return "unknown " __VERSION__;
#endif
}

} // namespace

std::string
provenanceJson(const RunOptions &opts)
{
    char buf[1024];
    std::snprintf(
        buf, sizeof buf,
        "{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,"
        "\"trace\":%d,\"nproc\":%u,\"compiler\":\"%s\",\"flags\":\"%s\","
        "\"build\":\"%s\",\"simd_isa\":\"%s\",\"cpu_features\":\"%s\","
        "\"commit\":\"%s\"}",
        opts.workload.c_str(), (unsigned long long)opts.seed, opts.seconds,
        opts.trace ? 1 : 0, std::thread::hardware_concurrency(),
        compilerName(), PERFBENCH_BUILD_FLAGS, PERFBENCH_BUILD_TYPE,
        reason::simd::isaName(), reason::simd::cpuFeatures(),
        opts.commit.c_str());
    return buf;
}

} // namespace perfbench
