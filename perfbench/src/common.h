/**
 * @file
 * Shared pieces of the benchmark program: run options, the result every
 * workload fills, the metric catalog (the single source of truth that
 * BENCHMARK.json must match), percentiles, and build provenance.
 */
#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sys/engine.h"
#include "trace.h"

namespace perfbench {

struct RunOptions
{
    std::string workload;
    uint64_t seed = 1;
    /** Measurement budget of the run, seconds. */
    double seconds = 20.0;
    bool trace = false;
    /** Small inputs for the benchmark's own tests. */
    bool smoke = false;
    /** Directory the Chrome trace file is written to (trace runs). */
    std::string traceDir = ".";
    std::string commit = "unknown";
};

struct RunResult
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** End-to-end and per-layer values by catalog name. */
    std::map<std::string, double> metrics;
    /** Traffic dimensions and other context, printed before the result. */
    std::map<std::string, std::string> info;
    /** Span logs of a traced run (one per recording thread). */
    std::vector<std::unique_ptr<SpanLog>> logs;

    /** Record a failed answer check (the run then exits nonzero). */
    void wrong(const char *fmt, ...);
    SpanLog &newLog(bool enabled);
    std::vector<const SpanLog *> logViews() const;
};

/** Engine work between pairs of EngineStats snapshots, summed. */
struct EngineWindow
{
    double latencySumMs = 0.0, queueSumMs = 0.0;
    uint64_t executed = 0, rows = 0, batches = 0;

    void add(const reason::sys::EngineStats &before,
             const reason::sys::EngineStats &after);
    /** Mean enqueue-to-completion latency of the executed requests. */
    double latencyMs() const;
    /** Mean enqueue-to-dispatch wait. */
    double queueMs() const;
    /** Mean useful rows per dispatched batch. */
    double batchRows() const;
};

struct MetricDef
{
    const char *name;
    const char *unit;
    const char *better;
    bool endToEnd;
};

/** Every metric the benchmark emits, in BENCHMARK.json order. */
const std::vector<MetricDef> &metricCatalog();

/** Linear-interpolated quantile (q in [0,1]) of unsorted samples. */
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);
/** Median over rounds of each round's q-quantile: a slow spell of the
 *  host that hits one round does not move the figure. */
double roundQuantile(const std::vector<std::vector<double>> &rounds,
                     double q);
/** q-quantile of every round's samples taken together. */
double pooledQuantile(const std::vector<std::vector<double>> &rounds,
                      double q);

/** Provenance fields as a JSON object (compiler, flags, ISA, ...). */
std::string provenanceJson(const RunOptions &opts);

/** Workload entry points. */
RunResult runKbCompile(const RunOptions &opts);
RunResult runOfflineBatch(const RunOptions &opts);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
