/**
 * @file
 * In-memory span recorder of the benchmark's traced runs.
 *
 * Spans are recorded by the benchmark around its own calls into the
 * library's modules (sys, pc, logic, util); nothing inside the library
 * is instrumented.  Each thread that records owns one SpanLog, so
 * recording takes no lock.  At exit the logs are merged, per-name
 * totals and self times (a span minus the union of its children) are
 * computed, and everything is written as Chrome trace-event JSON, the
 * array form that arch/trace_export also emits.
 */
#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** One closed interval; `parent` indexes the same SpanLog (-1 = root). */
struct Span
{
    const char *name = "";
    int64_t startNs = 0;
    int64_t endNs = 0;
    int32_t parent = -1;
    /** Request / KB / batch id shared by the spans of one operation. */
    uint64_t id = 0;
};

/** Spans of one thread.  A disabled log records nothing. */
class SpanLog
{
  public:
    SpanLog(bool enabled, uint32_t tid) : enabled_(enabled), tid_(tid) {}

    bool enabled() const { return enabled_; }
    uint32_t tid() const { return tid_; }
    const std::vector<Span> &spans() const { return spans_; }

    /** Open a span starting now; returns its index (-1 when disabled). */
    int32_t open(const char *name, uint64_t id, int32_t parent = -1);
    /** Close a span opened by open() (no-op for -1). */
    void close(int32_t index);

  private:
    bool enabled_;
    uint32_t tid_;
    std::vector<Span> spans_;
};

/** Per-name aggregate over every log. */
struct SpanStats
{
    uint64_t count = 0;
    double totalMs = 0.0;
    double selfMs = 0.0;
    double meanMs() const { return count ? totalMs / double(count) : 0.0; }
};

std::map<std::string, SpanStats>
summarize(const std::vector<const SpanLog *> &logs);

/**
 * Share of the wall time of the root spans named `window` that their
 * direct children cover (union of child intervals / window length),
 * summed over every window in every log.
 */
double childCoverage(const std::vector<const SpanLog *> &logs,
                     const char *window);

/**
 * Write every span as a Chrome "X" (complete) event: ts/dur in
 * microseconds relative to the earliest span, one track per log,
 * args carrying the operation id, the parent index and the self time.
 * `metadata` must be a JSON object; it lands under "otherData".
 */
bool writeChromeTrace(const std::string &path,
                      const std::vector<const SpanLog *> &logs,
                      const std::string &metadata);

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
