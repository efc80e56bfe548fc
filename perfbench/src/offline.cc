/**
 * @file
 * offline_batch: bulk inference and learning with no serving layer.
 *
 * Bulk logLikelihoodBatch over the ~120k-node circuit on an
 * nproc-worker pool (rows per second), posteriorMarginals queries
 * with half of the variables observed (light load: one caller, high
 * load: nproc concurrent callers, both on a 1-worker global pool; the
 * traced run adds one caller on an nproc-worker global pool), and, in
 * the traced run, a fixed-iteration emTrain on a ~32k-node circuit (a
 * 120k-node EM iteration over 2000 rows takes seconds, too long for one
 * run).  The thread pool and the backward (derivative / flow) passes do
 * the work here; sys does none.
 */
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <thread>

#include "common.h"
#include "pc/flat_pc.h"
#include "pc/learn.h"
#include "pc/pc.h"
#include "pc/queries.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace perfbench {

using namespace reason;

namespace {

struct Shape
{
    uint32_t vars, emVars;
    size_t batchRows, batches, evidenceRows, emRows;
};

const Shape kFull = {1500, 400, 512, 4, 64, 500};
const Shape kSmoke = {200, 60, 64, 2, 8, 64};

std::vector<pc::Assignment>
randomRows(Rng &rng, size_t n, uint32_t vars, double missing)
{
    std::vector<pc::Assignment> rows(n, pc::Assignment(vars));
    for (auto &row : rows)
        for (auto &v : row)
            v = rng.bernoulli(missing) ? pc::kMissing
                                       : uint32_t(rng.uniformInt(0, 1));
    return rows;
}

bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

struct Marg
{
    size_t evidence;
    double ms;
    pc::MarginalTable table;
};

/** posteriorMarginals from `callers` threads until the deadline. */
std::vector<Marg>
marginalsPhase(const pc::Circuit &circuit,
               const std::vector<pc::Assignment> &evidence, unsigned callers,
               double seconds, bool traced, RunResult &res)
{
    std::vector<std::vector<Marg>> per(callers);
    std::vector<SpanLog *> logs;
    for (unsigned c = 0; c < callers; ++c)
        logs.push_back(&res.newLog(traced));
    std::atomic<size_t> next{0};
    const int64_t end = nowNs() + int64_t(seconds * 1e9);
    auto body = [&](unsigned c) {
        SpanLog &log = *logs[c];
        const int32_t window = log.open("offline.window", 0);
        do {
            const size_t i = next.fetch_add(1) % evidence.size();
            const int32_t s = log.open("pc.marginals", i, window);
            const int64_t t0 = nowNs();
            pc::MarginalTable t = pc::posteriorMarginals(circuit, evidence[i]);
            const double ms = double(nowNs() - t0) * 1e-6;
            log.close(s);
            per[c].push_back({i, ms, std::move(t)});
        } while (nowNs() < end);
        log.close(window);
    };
    std::vector<std::thread> threads;
    for (unsigned c = 1; c < callers; ++c)
        threads.emplace_back(body, c);
    body(0);
    for (auto &t : threads)
        t.join();
    std::vector<Marg> out;
    for (auto &v : per)
        for (auto &m : v)
            out.push_back(std::move(m));
    return out;
}

std::vector<double>
latencies(const std::vector<Marg> &ms)
{
    std::vector<double> v;
    for (const Marg &m : ms)
        v.push_back(m.ms);
    return v;
}

/** Seconds per call of f(), over at least `reps` calls and ~min_s. */
template <typename F>
double
timePerCall(F &&f, int reps, double minS)
{
    const int64_t t0 = nowNs();
    int n = 0;
    do {
        f();
        ++n;
    } while (n < reps || double(nowNs() - t0) * 1e-9 < minS);
    return double(nowNs() - t0) * 1e-9 / n;
}

} // namespace

RunResult
runOfflineBatch(const RunOptions &opts)
{
    const Shape &sh = opts.smoke ? kSmoke : kFull;
    const unsigned nproc =
        std::max(1u, std::thread::hardware_concurrency());
    RunResult res;

    Rng rng(opts.seed);
    const pc::Circuit circuit = pc::randomCircuit(rng, sh.vars, 2, 8, 16);
    const auto data = randomRows(rng, sh.batchRows * sh.batches, sh.vars, 0.1);
    const auto evidence = randomRows(rng, sh.evidenceRows, sh.vars, 0.5);
    pc::Circuit emCircuit = pc::randomCircuit(rng, sh.emVars, 2, 8, 16);
    const auto emData = randomRows(rng, sh.emRows, sh.emVars, 0.0);
    std::vector<std::vector<pc::Assignment>> chunks;
    for (size_t b = 0; b < sh.batches; ++b)
        chunks.emplace_back(data.begin() + long(b * sh.batchRows),
                            data.begin() + long((b + 1) * sh.batchRows));

    // Set-up, 21 times: lowering, pool and evaluator construction.
    std::vector<double> setupS, lowerMs;
    std::unique_ptr<pc::FlatCircuit> flat;
    std::unique_ptr<util::ThreadPool> pool;
    std::unique_ptr<pc::CircuitEvaluator> eval;
    for (int i = 0; i < 21; ++i) {
        eval.reset();
        pool.reset();
        flat.reset();
        const int64_t t0 = nowNs();
        flat = std::make_unique<pc::FlatCircuit>(circuit);
        lowerMs.push_back(double(nowNs() - t0) * 1e-6);
        pool = std::make_unique<util::ThreadPool>(nproc);
        eval = std::make_unique<pc::CircuitEvaluator>(*flat, pool.get());
        setupS.push_back(double(nowNs() - t0) * 1e-9);
    }
    // The query API lowers through the process-wide flat cache; fill it
    // before timing so every timed query sees the same state.
    util::setGlobalThreads(nproc);
    pc::posteriorMarginals(circuit, evidence[0]);

    // Timed rounds: bulk log-likelihood on the nproc pool, then
    // marginals from one caller and from nproc concurrent callers, each
    // on one worker; every phase samples the whole run.  A traced run
    // adds, per round, an untraced one-caller segment (so the tracing
    // overhead is measured inside one process) and a one-caller segment
    // on the nproc pool (pc.marginals_ms).  That segment is not an
    // end-to-end figure: each query crosses the pool's barrier once per
    // pass level, so its latency follows how promptly every vCPU of a
    // shared VM is scheduled (p50 moved 20-42 ms between runs of one
    // hour), where a bulk call crosses it once per 512 rows.
    const double S = opts.seconds;
    const int rounds = opts.smoke ? 2 : 5;
    const double f = (opts.trace ? 0.65 : 1.0) * S / rounds;
    const double bulkF = opts.trace ? 0.25 : 0.3;
    const double lightF = opts.trace ? 0.25 : 0.3;
    const double heavyF = opts.trace ? 0.25 : 0.4;
    std::vector<Marg> poolMarg, light, heavy;
    std::vector<std::vector<double>> refMs, lightMs, heavyMs;
    auto append = [](std::vector<Marg> &to,
                     std::vector<std::vector<double>> &roundMs,
                     std::vector<Marg> &&from) {
        roundMs.push_back(latencies(from));
        for (Marg &m : from)
            to.push_back(std::move(m));
    };
    std::vector<double> firstChunk(sh.batchRows), out(sh.batchRows);
    size_t rowsDone = 0;
    double loglikS = 0.0;
    for (int r = 0; r < rounds; ++r) {
        util::setGlobalThreads(1);
        if (opts.trace)
            append(light, refMs,
                   marginalsPhase(circuit, evidence, 1, 0.1 * S / rounds,
                                  false, res));
        SpanLog &log = res.newLog(opts.trace);
        const int32_t window = log.open("offline.window", 0);
        const int64_t t0 = nowNs();
        const int64_t end = t0 + int64_t(bulkF * f * 1e9);
        size_t calls = 0;
        do {
            const size_t c = calls % chunks.size();
            const int32_t s = log.open("pc.eval.batch", calls, window);
            eval->logLikelihoodBatch(chunks[c], c == 0 ? firstChunk : out);
            log.close(s);
            ++calls;
        } while (nowNs() < end);
        log.close(window);
        loglikS += double(nowNs() - t0) * 1e-9;
        rowsDone += calls * sh.batchRows;

        append(light, lightMs,
               marginalsPhase(circuit, evidence, 1, lightF * f, opts.trace,
                              res));
        append(heavy, heavyMs,
               marginalsPhase(circuit, evidence, nproc, heavyF * f,
                              opts.trace, res));
        if (opts.trace) {
            std::vector<std::vector<double>> unused;
            util::setGlobalThreads(nproc);
            append(poolMarg, unused,
                   marginalsPhase(circuit, evidence, 1, 0.25 * f, true,
                                  res));
        }
    }
    util::setGlobalThreads(nproc);

    res.metrics["ops_per_s"] = double(rowsDone) / loglikS;
    res.metrics["setup_s"] = median(setupS);
    res.metrics["p50_ms"] = roundQuantile(lightMs, 0.5);
    res.metrics["tail_ms"] = roundQuantile(lightMs, 0.9);
    res.metrics["p50_ms.high"] = roundQuantile(heavyMs, 0.5);
    res.metrics["tail_ms.high"] = roundQuantile(heavyMs, 0.9);
    res.info["circuit_nodes"] = std::to_string(circuit.numNodes());
    res.info["em_circuit_nodes"] = std::to_string(emCircuit.numNodes());
    res.info["threads"] = std::to_string(nproc);
    res.info["marginal_queries"] = std::to_string(light.size()) + " light, " +
                                   std::to_string(heavy.size()) + " high";
    if (opts.trace)
        res.info["marginal_queries"] +=
            ", " + std::to_string(poolMarg.size()) + " on the nproc pool";

    // Answer checks, outside the timed windows.
    util::ThreadPool one(1);
    {
        pc::CircuitEvaluator serial(*flat, &one);
        std::vector<double> want(sh.batchRows);
        serial.logLikelihoodBatch(chunks[0], want);
        ++res.attempted;
        if (!sameBits(firstChunk, want))
            res.wrong("logLikelihoodBatch: %u-worker rows differ from the "
                      "1-worker pool",
                      nproc);
    }
    // Marginals on the nproc pool for every evidence row the timed
    // phases answered on one worker, unless the traced run's nproc-pool
    // phase already holds them.
    if (poolMarg.empty()) {
        std::vector<bool> seen(evidence.size());
        for (const std::vector<Marg> *phase : {&light, &heavy}) {
            for (const Marg &m : *phase) {
                if (seen[m.evidence])
                    continue;
                seen[m.evidence] = true;
                poolMarg.push_back(
                    {m.evidence, 0.0,
                     pc::posteriorMarginals(circuit, evidence[m.evidence])});
            }
        }
    }
    std::vector<const pc::MarginalTable *> byEvidence(evidence.size());
    for (const auto *phase : {&poolMarg, &light, &heavy}) {
        for (const Marg &m : *phase) {
            ++res.attempted;
            for (const auto &row : m.table.prob) {
                double s = 0.0;
                for (double p : row)
                    s += p;
                if (!(std::fabs(s - 1.0) <= 1e-9)) {
                    res.wrong("marginal row sums to %.17g", s);
                    return res;
                }
            }
            const pc::MarginalTable *&seen = byEvidence[m.evidence];
            if (seen == nullptr) {
                seen = &m.table;
                continue;
            }
            for (size_t v = 0; v < seen->prob.size(); ++v)
                if (!sameBits(seen->prob[v], m.table.prob[v])) {
                    res.wrong("marginals of evidence %zu differ between "
                              "thread counts",
                              m.evidence);
                    return res;
                }
        }
    }
    const std::shared_ptr<const pc::FlatCircuit> emFlat =
        std::make_shared<const pc::FlatCircuit>(emCircuit);
    pc::DatasetFlows flowsPar, flowsOne;
    const double flowsParS = timePerCall(
        [&] {
            flowsPar = pc::accumulateDatasetFlows(*emFlat, emData, {},
                                                  pool.get());
        },
        1, 0.0);
    const double flowsOneS = timePerCall(
        [&] {
            flowsOne = pc::accumulateDatasetFlows(*emFlat, emData, {}, &one);
        },
        1, 0.0);
    ++res.attempted;
    if (!sameBits(flowsPar.edgeFlow, flowsOne.edgeFlow) ||
        !sameBits(flowsPar.nodeFlow, flowsOne.nodeFlow) ||
        !sameBits(flowsPar.leafValueFlow, flowsOne.leafValueFlow))
        res.wrong("accumulateDatasetFlows: %u-worker totals differ from the "
                  "1-worker pool",
                  nproc);
    if (!opts.trace)
        return res;

    // Per-layer probes: the same call on a 1-worker and an nproc pool.
    {
        pc::CircuitEvaluator serial(*flat, &one);
        std::vector<double> out(sh.batchRows);
        const double parS = timePerCall(
            [&] { eval->logLikelihoodBatch(chunks[1], out); }, 2, 0.3);
        const double oneS = timePerCall(
            [&] { serial.logLikelihoodBatch(chunks[1], out); }, 1, 0.3);
        res.metrics["util.parallel.loglik_speedup"] = oneS / parS;

        std::vector<double> logd, logdOne;
        std::span<const double> logv = eval->evaluate(evidence[0]);
        const std::vector<double> values(logv.begin(), logv.end());
        const double dParS = timePerCall(
            [&] { pc::logDerivativesInto(*flat, values, logd, pool.get()); },
            5, 0.2);
        const double dOneS = timePerCall(
            [&] { pc::logDerivativesInto(*flat, values, logdOne, &one); }, 3,
            0.2);
        ++res.attempted;
        if (!sameBits(logd, logdOne))
            res.wrong("logDerivativesInto: thread counts disagree");
        res.metrics["pc.deriv_ms"] = dParS * 1e3;
        res.metrics["util.parallel.deriv_speedup"] = dOneS / dParS;

        const std::vector<pc::Assignment> probe(chunks[0].begin(),
                                                chunks[0].begin() + 64);
        std::vector<double> o64(probe.size());
        size_t k = 0;
        res.metrics["pc.eval.row_us.b1"] =
            timePerCall([&] { serial.logLikelihood(probe[k++ % 64]); }, 8,
                        0.1) *
            1e6;
        res.metrics["pc.eval.row_us.batch"] =
            timePerCall([&] { serial.logLikelihoodBatch(probe, o64); }, 2,
                        0.1) *
            1e6 / double(probe.size());
    }
    res.metrics["pc.flows_ms"] = flowsParS * 1e3;
    res.metrics["util.parallel.flows_speedup"] = flowsOneS / flowsParS;
    {
        pc::EmOptions em;
        em.maxIterations = 3;
        em.tolerance = -std::numeric_limits<double>::infinity();
        SpanLog &log = res.newLog(true);
        const int32_t s = log.open("pc.learn.em", 0);
        const int64_t t0 = nowNs();
        const pc::EmTrace tr = pc::emTrain(emCircuit, emData, em);
        const double iterS =
            double(nowNs() - t0) * 1e-9 / double(std::max(1u, tr.iterations));
        log.close(s);
        res.metrics["pc.learn.iter_s"] = iterS;
        res.metrics["pc.learn.estep_share"] = flowsParS / iterS;
    }

    const auto logs = res.logViews();
    const auto spans = summarize(logs);
    res.metrics["pc.eval.batch_ms"] = spans.at("pc.eval.batch").meanMs();
    res.metrics["pc.marginals_ms"] = quantile(latencies(poolMarg), 0.5);
    res.metrics["pc.lower_ms"] = median(lowerMs);
    res.metrics["trace.coverage"] = childCoverage(logs, "offline.window");
    const double p50ref = roundQuantile(refMs, 0.5);
    res.metrics["trace.overhead_pct"] =
        (res.metrics["p50_ms"] - p50ref) / p50ref * 100.0;
    return res;
}

} // namespace perfbench
