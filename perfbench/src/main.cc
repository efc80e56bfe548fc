/**
 * @file
 * perfbench — the repository benchmark program.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             [--smoke] [--trace-dir DIR] [--commit SHA]
 *   perfbench --list-metrics
 *
 * Workloads: kb_compile, offline_batch (see
 * perfbench/README.md for why each exists and what it predicts).  The
 * seed generates every input; the library only ever sees the
 * generated inputs.  The last stdout line is one JSON object with the
 * keys correct, attempted, failed and metrics: the end-to-end metrics
 * of an untraced run, or the per-layer metrics of a traced run (which
 * also writes DIR/<workload>-seed<N>.trace.json in Chrome trace-event
 * format).  Every answer check runs outside the timed windows; a
 * wrong answer prints correct=false and exits 1.
 */
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.h"

using namespace perfbench;

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload kb_compile|offline_batch "
                 "--seed N --seconds S "
                 "--trace 0|1 [--smoke] [--trace-dir DIR] "
                 "[--commit SHA]\n"
                 "       perfbench --list-metrics\n");
    return 2;
}

void
listMetrics()
{
    std::printf("[");
    bool first = true;
    for (const MetricDef &m : metricCatalog()) {
        std::printf("%s\n{\"name\":\"%s\",\"unit\":\"%s\","
                    "\"better\":\"%s\",\"kind\":\"%s\"}",
                    first ? "" : ",", m.name, m.unit, m.better,
                    m.endToEnd ? "end_to_end" : "per_layer");
        first = false;
    }
    std::printf("\n]\n");
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions opts;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool hasValue = i + 1 < argc;
        if (a == "--list-metrics") {
            listMetrics();
            return 0;
        } else if (a == "--smoke") {
            opts.smoke = true;
        } else if (a == "--workload" && hasValue) {
            opts.workload = argv[++i];
        } else if (a == "--seed" && hasValue) {
            opts.seed = std::strtoull(argv[++i], nullptr, 10);
            haveSeed = true;
        } else if (a == "--seconds" && hasValue) {
            opts.seconds = std::atof(argv[++i]);
            haveSeconds = true;
        } else if (a == "--trace" && hasValue) {
            const std::string v = argv[++i];
            if (v != "0" && v != "1")
                return usage();
            opts.trace = v == "1";
            haveTrace = true;
        } else if (a == "--trace-dir" && hasValue) {
            opts.traceDir = argv[++i];
        } else if (a == "--commit" && hasValue) {
            opts.commit = argv[++i];
        } else {
            return usage();
        }
    }
    if (!haveSeed || !haveSeconds || !haveTrace || opts.seconds <= 0.0 ||
        opts.seconds > 120.0)
        return usage();

    RunResult r;
    try {
        if (opts.workload == "kb_compile")
            r = runKbCompile(opts);
        else if (opts.workload == "offline_batch")
            r = runOfflineBatch(opts);
        else
            return usage();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 3;
    }

    const std::string provenance = provenanceJson(opts);
    std::printf("PERFBENCH_PROVENANCE %s\n", provenance.c_str());
    std::string info = "{";
    for (const auto &[k, v] : r.info)
        info += (info.size() > 1 ? ",\"" : "\"") + k + "\":\"" + v + "\"";
    std::printf("PERFBENCH_INFO %s}\n", info.c_str());

    if (opts.trace) {
        const auto logs = r.logViews();
        const std::string path = opts.traceDir + "/" + opts.workload +
                                 "-seed" + std::to_string(opts.seed) +
                                 ".trace.json";
        if (!writeChromeTrace(path, logs, provenance)) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         path.c_str());
            return 3;
        }
        std::fprintf(stderr, "perfbench: trace written to %s\n",
                     path.c_str());
        std::fprintf(stderr, "%-28s %10s %12s %12s\n", "span", "count",
                     "total_ms", "self_ms");
        for (const auto &[name, st] : summarize(logs))
            std::fprintf(stderr, "%-28s %10llu %12.3f %12.3f\n",
                         name.c_str(), (unsigned long long)st.count,
                         st.totalMs, st.selfMs);
    }

    std::string metrics;
    for (const MetricDef &m : metricCatalog()) {
        if (m.endToEnd == opts.trace)
            continue;
        auto it = r.metrics.find(m.name);
        double value = it == r.metrics.end() ? 0.0 : it->second;
        if (m.endToEnd && (it == r.metrics.end() || !(value > 0.0))) {
            std::fprintf(stderr,
                         "perfbench: end-to-end metric %s not measured\n",
                         m.name);
            return 3;
        }
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                      metrics.empty() ? "" : ",", m.name, value, m.unit);
        metrics += buf;
    }
    std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
                "\"metrics\":{%s}}\n",
                r.correct ? "true" : "false",
                (unsigned long long)r.attempted,
                (unsigned long long)r.failed, metrics.c_str());
    std::fflush(stdout);
    return r.correct ? 0 : 1;
}
