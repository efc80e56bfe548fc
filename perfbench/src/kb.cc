/**
 * @file
 * kb_compile: DIMACS text to a served answer, closed loop.
 *
 * For each knowledge base of a seeded corpus (random and planted 3-CNF,
 * 28-40 variables, clause ratio 2-3; compile cost grows about 6x per
 * +10 variables, so hardness is varied rather than fixed) the client
 * runs parse -> compileToDnnf -> flatFromDnnf with seeded literal
 * weights -> createSession(FlatCircuit) -> one batch of exact queries,
 * and waits for the answers.  Ready latency is text in to answers out.
 * The corpus is interleaved over its (size, ratio, kind) grid, so every
 * prefix a run gets through has the same mix.  Light load is one client
 * thread; high load is four client threads sharing one engine.
 */
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <thread>

#include "common.h"
#include "logic/cnf.h"
#include "logic/knowledge.h"
#include "pc/flat_pc.h"
#include "pc/from_logic.h"
#include "sys/engine.h"
#include "util/rng.h"

namespace perfbench {

using namespace reason;

namespace {

constexpr double kLogZero = -std::numeric_limits<double>::infinity();
/** Grid of the corpus: 7 sizes x 3 clause ratios x {random, planted}. */
constexpr size_t kGrid = 42;
/** Unobserved-variable counts of the partial query rows (<= 12). */
constexpr uint32_t kUnobserved[] = {4, 6, 8, 10};

struct Kb
{
    std::string text;
    logic::LitWeights weights;
    std::vector<pc::Assignment> queries;
    uint32_t vars = 0;
    bool planted = false;
};

Kb
makeKb(uint64_t seed, size_t index, bool smoke)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ull + index);
    const size_t g = index % kGrid;
    Kb kb;
    kb.vars = (smoke ? 12u : 28u) + 2u * uint32_t(g % 7);
    const double ratio = 2.0 + 0.5 * double((g / 7) % 3);
    kb.planted = (g / 21) % 2 == 1;
    const uint32_t clauses = uint32_t(std::lround(ratio * kb.vars));
    std::vector<bool> model(kb.vars);
    logic::CnfFormula f;
    if (kb.planted) {
        f = logic::plantedKSat(rng, kb.vars, clauses, 3, &model);
    } else {
        f = logic::randomKSat(rng, kb.vars, clauses, 3);
        for (uint32_t v = 0; v < kb.vars; ++v)
            model[v] = rng.bernoulli(0.5);
    }
    f.ensureVars(kb.vars);
    kb.text = f.toDimacs();
    kb.weights = logic::LitWeights::random(rng, kb.vars);
    // Complete rows: the base assignment and three single flips of it.
    for (int q = 0; q < 4; ++q) {
        pc::Assignment row(kb.vars);
        for (uint32_t v = 0; v < kb.vars; ++v)
            row[v] = model[v] ? 1u : 0u;
        if (q > 0) {
            const auto v = size_t(rng.uniformInt(0, kb.vars - 1));
            row[v] ^= 1u;
        }
        kb.queries.push_back(row);
    }
    // Partial rows: the base assignment with k variables unobserved.
    for (uint32_t k : kUnobserved) {
        pc::Assignment row(kb.vars);
        for (uint32_t v = 0; v < kb.vars; ++v)
            row[v] = model[v] ? 1u : 0u;
        for (uint32_t hidden = 0; hidden < k;) {
            const auto v = size_t(rng.uniformInt(0, kb.vars - 1));
            if (row[v] != pc::kMissing) {
                row[v] = pc::kMissing;
                ++hidden;
            }
        }
        kb.queries.push_back(row);
    }
    return kb;
}

/** log(prod of literal weights) of a complete row, -inf for non-models. */
double
directLogWeight(const logic::CnfFormula &f, const logic::LitWeights &w,
                const std::vector<bool> &x)
{
    if (!f.evaluate(x))
        return kLogZero;
    double s = 0.0;
    for (size_t v = 0; v < x.size(); ++v)
        s += std::log(x[v] ? w.pos[v] : w.neg[v]);
    return s;
}

/** Reference answers: direct evaluation, and enumeration of partials. */
std::vector<double>
referenceAnswers(const Kb &kb)
{
    const logic::CnfFormula f = logic::CnfFormula::parseDimacs(kb.text);
    std::vector<double> ref;
    for (const pc::Assignment &row : kb.queries) {
        std::vector<uint32_t> hidden;
        std::vector<bool> x(kb.vars);
        for (uint32_t v = 0; v < kb.vars; ++v) {
            if (row[v] == pc::kMissing)
                hidden.push_back(v);
            else
                x[v] = row[v] == 1u;
        }
        double acc = kLogZero;
        for (uint64_t m = 0; m < (1ull << hidden.size()); ++m) {
            for (size_t i = 0; i < hidden.size(); ++i)
                x[hidden[i]] = (m >> i) & 1u;
            const double t = directLogWeight(f, kb.weights, x);
            if (t == kLogZero)
                continue;
            const double hi = std::max(acc, t);
            acc = acc == kLogZero
                      ? t
                      : hi + std::log(std::exp(acc - hi) + std::exp(t - hi));
        }
        ref.push_back(acc);
    }
    return ref;
}

struct Done
{
    size_t kb;
    double readyMs;
    std::vector<double> outputs;
    int error;
};

struct Client
{
    SpanLog *log = nullptr;
    std::vector<Done> done;
};

/** One KB through the whole pipeline; spans hang off the window span. */
void
processKb(sys::ReasonEngine &engine, const Kb &kb, size_t index,
          Client &cl, int32_t window)
{
    SpanLog &log = *cl.log;
    const int64_t t0 = nowNs();
    int32_t s = log.open("logic.parse", index, window);
    const logic::CnfFormula f = logic::CnfFormula::parseDimacs(kb.text);
    log.close(s);
    s = log.open("logic.compile", index, window);
    const logic::DnnfGraph g = logic::compileToDnnf(f);
    log.close(s);
    s = log.open("pc.lower", index, window);
    auto flat = std::make_shared<const pc::FlatCircuit>(
        pc::flatFromDnnf(g, kb.weights));
    log.close(s);
    s = log.open("sys.session", index, window);
    sys::Session session = engine.createSession(flat);
    log.close(s);
    s = log.open("sys.query", index, window);
    const auto handle = session.submitBatch(kb.queries);
    const auto answer = session.wait(handle);
    log.close(s);
    const double ready = double(nowNs() - t0) * 1e-6;
    cl.done.push_back({index, ready, answer->outputs, answer->error});
}

/** One load level, accumulated over its segments (one per round). */
struct Phase
{
    /** Ready latencies, one vector per segment (round). */
    std::vector<std::vector<double>> readyMs;
    size_t kbs = 0;
    double seconds = 0.0;
    /** Next corpus index: each phase walks the corpus from the start. */
    size_t cursor = 0;
    /** One per client thread per segment. */
    std::vector<Client> clients;
    EngineWindow engine;
};

/** Run `threads` closed-loop clients for `seconds`, appending to `ph`. */
void
runSegment(sys::ReasonEngine &engine, const std::vector<Kb> &corpus,
           unsigned threads, double seconds, bool traced, RunResult &res,
           Phase &ph)
{
    const size_t base = ph.clients.size();
    ph.clients.resize(base + threads);
    for (size_t t = base; t < ph.clients.size(); ++t)
        ph.clients[t].log = &res.newLog(traced);
    std::atomic<size_t> next{ph.cursor};
    const int64_t start = nowNs();
    const int64_t end = start + int64_t(seconds * 1e9);
    const sys::EngineStats before = engine.stats();
    auto body = [&](Client &cl) {
        const int32_t window = cl.log->open("kb.window", 0);
        for (;;) {
            const size_t i = next.fetch_add(1) % corpus.size();
            processKb(engine, corpus[i], i, cl, window);
            if (nowNs() >= end)
                break;
        }
        cl.log->close(window);
    };
    std::vector<std::thread> pool;
    for (unsigned t = 1; t < threads; ++t)
        pool.emplace_back(body, std::ref(ph.clients[base + t]));
    body(ph.clients[base]);
    for (auto &t : pool)
        t.join();
    ph.seconds += double(nowNs() - start) * 1e-9;
    ph.cursor = next.load();
    const sys::EngineStats after = engine.stats();
    ph.engine.add(before, after);
    ph.readyMs.emplace_back();
    for (size_t t = base; t < ph.clients.size(); ++t)
        for (const Done &d : ph.clients[t].done)
            ph.readyMs.back().push_back(d.readyMs);
    ph.kbs += ph.readyMs.back().size();
}

} // namespace

RunResult
runKbCompile(const RunOptions &opts)
{
    RunResult res;
    // Enough KBs that a run never wraps at today's speed (a wrap only
    // re-compiles the same texts).
    const size_t corpusSize = opts.smoke ? kGrid : 30 * kGrid;
    std::vector<Kb> corpus;
    for (size_t i = 0; i < corpusSize; ++i)
        corpus.push_back(makeKb(opts.seed, i, opts.smoke));
    // A fixed KB outside the corpus (smallest grid cell), so set-up time
    // does not depend on the seed.
    const Kb warm = makeKb(0, 0, opts.smoke);

    // Set-up: engine start plus one warm-up KB through the pipeline
    // (first-use allocations and caches are paid here, not in the
    // timed window).
    std::vector<double> setupS;
    std::unique_ptr<sys::ReasonEngine> engine;
    for (int i = 0; i < 15; ++i) {
        engine.reset();
        const int64_t t0 = nowNs();
        engine = std::make_unique<sys::ReasonEngine>(sys::ServeOptions{});
        SpanLog off(false, 0);
        Client cl;
        cl.log = &off;
        processKb(*engine, warm, 0, cl, -1);
        setupS.push_back(double(nowNs() - t0) * 1e-9);
    }

    // Timed rounds: one light (1 client) and one heavy (4 clients)
    // segment each, so both load levels sample the whole run.  The
    // light level gets more of the time, as it completes a quarter as
    // many KBs per second.  Percentiles pool every KB of a level: the
    // tail sits in the hardest cells of the grid, and a round holds
    // only a few KBs of each.  A traced
    // run adds an untraced light segment per round, so the tracing
    // overhead is measured inside one process.
    const double S = opts.seconds;
    const int rounds = opts.smoke ? 2 : 5;
    const double f = (opts.trace ? 0.8 : 1.0) * S / rounds;
    Phase ref, light, heavy;
    for (int r = 0; r < rounds; ++r) {
        if (opts.trace)
            runSegment(*engine, corpus, 1, 0.2 * S / rounds, false, res, ref);
        runSegment(*engine, corpus, 1, 0.65 * f, opts.trace, res, light);
        runSegment(*engine, corpus, 4, 0.35 * f, opts.trace, res, heavy);
    }
    const uint64_t maxDepth = engine->stats().maxQueueDepth;
    engine.reset();

    res.metrics["setup_s"] = median(setupS);
    res.metrics["ops_per_s"] = double(light.kbs) / light.seconds;
    res.metrics["p50_ms"] = pooledQuantile(light.readyMs, 0.5);
    res.metrics["tail_ms"] = pooledQuantile(light.readyMs, 0.9);
    res.metrics["p50_ms.high"] = pooledQuantile(heavy.readyMs, 0.5);
    res.metrics["tail_ms.high"] = pooledQuantile(heavy.readyMs, 0.9);
    res.info["corpus"] = "3-CNF, vars 28..40 step 2, ratio 2/2.5/3, "
                         "random+planted, 8 query rows per KB";
    res.info["light_kbs"] = std::to_string(light.kbs);
    res.info["high_kbs"] = std::to_string(heavy.kbs);
    res.info["clients"] = "1 (light), 4 (high), closed loop";

    // Answer checks, outside the timed windows.
    std::vector<std::vector<double>> refs(corpus.size());
    for (const Phase *ph : {&ref, &light, &heavy}) {
        for (const Client &c : ph->clients) {
            for (const Done &d : c.done) {
                ++res.attempted;
                if (d.error != 0) {
                    ++res.failed;
                    continue;
                }
                if (refs[d.kb].empty())
                    refs[d.kb] = referenceAnswers(corpus[d.kb]);
                const auto &want = refs[d.kb];
                for (size_t q = 0; q < want.size(); ++q) {
                    const double got = d.outputs.at(q), w = want[q];
                    const bool ok =
                        (w == kLogZero && got == kLogZero) ||
                        std::fabs(got - w) <= 1e-9 * std::max(1.0, std::fabs(w));
                    if (!ok) {
                        res.wrong("kb %zu query %zu: served %.17g, "
                                  "reference %.17g",
                                  d.kb, q, got, w);
                        return res;
                    }
                }
            }
        }
    }
    if (!opts.trace)
        return res;

    // Per-layer values from the light (one client) phase.
    std::vector<const SpanLog *> lightLogs;
    for (const Client &c : light.clients)
        lightLogs.push_back(c.log);
    const auto spans = summarize(lightLogs);
    auto stat = [&](const char *name) {
        auto it = spans.find(name);
        return it == spans.end() ? SpanStats{} : it->second;
    };
    res.metrics["logic.parse_ms"] = stat("logic.parse").meanMs();
    res.metrics["logic.compile_ms"] = stat("logic.compile").meanMs();
    res.metrics["logic.compile_share"] =
        stat("logic.compile").totalMs / stat("kb.window").totalMs;
    res.metrics["pc.lower_ms"] = stat("pc.lower").meanMs();
    res.metrics["sys.session_ms"] = stat("sys.session").meanMs();
    res.metrics["sys.query_ms"] = stat("sys.query").meanMs();
    // Exact count: d-DNNF nodes of one pass over the corpus grid.
    uint64_t nodes = 0;
    for (size_t i = 0; i < kGrid; ++i)
        nodes += logic::compileToDnnf(
                     logic::CnfFormula::parseDimacs(corpus[i].text))
                     .numNodes();
    res.metrics["logic.dnnf_nodes"] = double(nodes);
    const EngineWindow &eng = light.engine;
    res.metrics["sys.engine.queue_ms"] = eng.queueMs();
    res.metrics["sys.engine.exec_ms"] = eng.latencyMs() - eng.queueMs();
    res.metrics["sys.engine.batches"] = double(eng.batches);
    res.metrics["sys.engine.batch_rows"] = eng.batchRows();
    res.metrics["sys.engine.max_queue_depth"] = double(maxDepth);
    std::vector<const SpanLog *> traced = lightLogs;
    for (const Client &c : heavy.clients)
        traced.push_back(c.log);
    res.metrics["trace.coverage"] = childCoverage(traced, "kb.window");
    const double p50ref = pooledQuantile(ref.readyMs, 0.5);
    res.metrics["trace.overhead_pct"] =
        (res.metrics["p50_ms"] - p50ref) / p50ref * 100.0;
    return res;
}

} // namespace perfbench
