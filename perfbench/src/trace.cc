#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <utility>

namespace perfbench {

int32_t
SpanLog::open(const char *name, uint64_t id, int32_t parent)
{
    if (!enabled_)
        return -1;
    const int64_t t = nowNs();
    spans_.push_back(Span{name, t, t, parent, id});
    return int32_t(spans_.size() - 1);
}

void
SpanLog::close(int32_t index)
{
    if (index >= 0)
        spans_[size_t(index)].endNs = nowNs();
}

namespace {

/** Length of the union of `intervals` clipped to [lo, hi]. */
int64_t
unionLength(std::vector<std::pair<int64_t, int64_t>> &intervals,
            int64_t lo, int64_t hi)
{
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    int64_t curStart = 0, curEnd = std::numeric_limits<int64_t>::min();
    for (auto [s, e] : intervals) {
        s = std::max(s, lo);
        e = std::min(e, hi);
        if (e <= s)
            continue;
        if (s > curEnd) {
            if (curEnd > curStart)
                covered += curEnd - curStart;
            curStart = s;
            curEnd = e;
        } else {
            curEnd = std::max(curEnd, e);
        }
    }
    if (curEnd > curStart)
        covered += curEnd - curStart;
    return covered;
}

/** Per span: nanoseconds covered by its direct children. */
std::vector<int64_t>
childCovered(const SpanLog &log)
{
    const auto &spans = log.spans();
    std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(
        spans.size());
    for (const Span &s : spans)
        if (s.parent >= 0)
            kids[size_t(s.parent)].push_back({s.startNs, s.endNs});
    std::vector<int64_t> covered(spans.size(), 0);
    for (size_t i = 0; i < spans.size(); ++i)
        if (!kids[i].empty())
            covered[i] =
                unionLength(kids[i], spans[i].startNs, spans[i].endNs);
    return covered;
}

} // namespace

std::map<std::string, SpanStats>
summarize(const std::vector<const SpanLog *> &logs)
{
    std::map<std::string, SpanStats> out;
    for (const SpanLog *log : logs) {
        const std::vector<int64_t> covered = childCovered(*log);
        for (size_t i = 0; i < log->spans().size(); ++i) {
            const Span &s = log->spans()[i];
            const int64_t dur = s.endNs - s.startNs;
            SpanStats &st = out[s.name];
            ++st.count;
            st.totalMs += double(dur) * 1e-6;
            st.selfMs += double(dur - covered[i]) * 1e-6;
        }
    }
    return out;
}

double
childCoverage(const std::vector<const SpanLog *> &logs, const char *window)
{
    const std::string name(window);
    int64_t total = 0, covered = 0;
    for (const SpanLog *log : logs) {
        const std::vector<int64_t> c = childCovered(*log);
        for (size_t i = 0; i < log->spans().size(); ++i) {
            const Span &s = log->spans()[i];
            if (s.parent != -1 || name != s.name)
                continue;
            total += s.endNs - s.startNs;
            covered += c[i];
        }
    }
    return total > 0 ? double(covered) / double(total) : 0.0;
}

bool
writeChromeTrace(const std::string &path,
                 const std::vector<const SpanLog *> &logs,
                 const std::string &metadata)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    int64_t origin = std::numeric_limits<int64_t>::max();
    for (const SpanLog *log : logs)
        for (const Span &s : log->spans())
            origin = std::min(origin, s.startNs);
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":%s,"
                    "\"traceEvents\":[",
                 metadata.c_str());
    bool first = true;
    for (const SpanLog *log : logs) {
        const std::vector<int64_t> covered = childCovered(*log);
        for (size_t i = 0; i < log->spans().size(); ++i) {
            const Span &s = log->spans()[i];
            const std::string name(s.name);
            const std::string cat = name.substr(0, name.find('.'));
            std::fprintf(
                f,
                "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                "\"args\":{\"id\":%llu,\"parent\":%d,\"self_us\":%.3f}}",
                first ? "" : ",", s.name, cat.c_str(),
                double(s.startNs - origin) * 1e-3,
                double(s.endNs - s.startNs) * 1e-3, log->tid(),
                (unsigned long long)s.id, s.parent,
                double(s.endNs - s.startNs - covered[i]) * 1e-3);
            first = false;
        }
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
