/**
 * @file
 * Seed-vs-flat evaluation benchmark: times repeated Circuit
 * log-likelihood passes on a >=100k-node random circuit through the
 * reference AoS walker (Circuit::logLikelihood, one allocation per
 * call), the serial flat CSR engine (pc::CircuitEvaluator,
 * allocation-free batched), and the thread-parallel wavefront engine
 * (same evaluator over a multi-worker pool, bit-identical results),
 * plus the async batch-serving engine (sys::ReasonEngine: cross-request coalescing
 * vs sequential single-request submission), and the SIMD kernel
 * micro-benches (kernel_logsumexp, hmm_leaf_batch: the util/simd.h
 * pack kernels vs their bit-exact forced-scalar references, with a
 * >= 1.5x gate on vectorized builds for the sum-layer kernel), and
 * the CNF -> d-DNNF -> FlatCircuit compilation differential
 * (compile_flat: 200 random formulas through the legacy Dag WMC, the
 * direct flat lowering, the streamed `.nnf` round-trip, and brute
 * force, with a throughput gate and a zero-mismatch exit gate).
 *
 * Emits one machine-readable JSON line per engine pair (prefix
 * "BENCH_JSON ", with compiler/flags/ISA provenance) so the perf
 * trajectory can be tracked across PRs:
 *
 *   ./bench_eval [num_vars] [reps] [--threads N] [--repeats N]
 *               [--max-batch N]
 *
 * --threads N   worker count of the threaded variant (default:
 *               hardware concurrency; 1 skips the threaded section).
 * --repeats N   same as the positional reps argument.
 * --max-batch N most rows per coalesced serving batch (default 64).
 */

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "../tests/random_circuit.h"
#include "arch/dram.h"
#include "hmm/hmm.h"
#include "logic/cnf.h"
#include "logic/knowledge.h"
#include "logic/nnf_io.h"
#include "pc/approx.h"
#include "pc/flat_cache.h"
#include "pc/flat_pc.h"
#include "pc/from_logic.h"
#include "pc/learn.h"
#include "pc/pc.h"
#include "sys/engine.h"
#include "sys/fault.h"
#include "sys/net.h"
#if REASON_HAS_SOCKETS
#include "sys/client.h"
#include "sys/server.h"
#endif
#include "util/numeric.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/simd.h"

using namespace reason;
using Clock = std::chrono::steady_clock;

#ifndef REASON_BUILD_FLAGS
#define REASON_BUILD_FLAGS "unknown"
#endif
#ifndef REASON_BUILD_TYPE
#define REASON_BUILD_TYPE "unknown"
#endif

namespace {

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

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

/** Upper bounds of the numeric arguments (stated by usageError). */
constexpr unsigned long long kMaxVars = 20000;
constexpr unsigned long long kMaxReps = 100000;
constexpr unsigned long long kMaxBatchRows = 1ull << 20;

int
usageError()
{
    std::fprintf(stderr,
                 "usage: bench_eval [num_vars 2..%llu] [reps 1..%llu] "
                 "[--threads 0..%u] [--repeats 1..%llu] "
                 "[--max-batch 1..%llu]\n",
                 kMaxVars, kMaxReps, util::kMaxThreads, kMaxReps,
                 kMaxBatchRows);
    return 1;
}

/** Order-sensitive FNV-1a over the exact bit patterns of a vector. */
uint64_t
bitHash(const std::vector<double> &v)
{
    uint64_t h = 1469598103934665603ull;
    for (double d : v) {
        uint64_t bits;
        std::memcpy(&bits, &d, sizeof bits);
        for (int i = 0; i < 8; ++i) {
            h ^= (bits >> (i * 8)) & 0xff;
            h *= 1099511628211ull;
        }
    }
    return h;
}

/** Exact bit comparison of two doubles. */
bool
bitsDiffer(double x, double y)
{
    uint64_t bx, by;
    std::memcpy(&bx, &x, sizeof bx);
    std::memcpy(&by, &y, sizeof by);
    return bx != by;
}

// ---------------------------------------------------------------------------
// Forced-scalar reference kernels for the SIMD micro-benches.  These
// run the identical per-lane algorithms (same exp/log polynomials,
// same accumulation order) with the auto-vectorizer disabled, so the
// measured factor is the honest gain of the explicit SIMD layer and
// the outputs must match the SIMD kernels bit for bit.
// ---------------------------------------------------------------------------

/** One sum-layer logsumexp block (8 lanes, SoA terms), scalar lanes.
 *  Every loop carries the per-loop pragma too: on clang the function
 *  attribute alone does not exist, so loop-level disabling is what
 *  keeps the reference honest there. */
REASON_NOVECTORIZE void
sumKernelScalarRef(const double *terms, size_t fanin, double *out)
{
    constexpr size_t B = simd::kLanes;
    REASON_NOVECTORIZE_LOOP
    for (size_t b = 0; b < B; ++b) {
        double hi = reason::kLogZero;
        REASON_NOVECTORIZE_LOOP
        for (size_t e = 0; e < fanin; ++e) {
            const double t = terms[e * B + b];
            hi = t > hi ? t : hi;
        }
        if (hi == reason::kLogZero) {
            out[b] = reason::kLogZero;
            continue;
        }
        double acc = 0.0;
        REASON_NOVECTORIZE_LOOP
        for (size_t e = 0; e < fanin; ++e) {
            const double t = terms[e * B + b];
            if (t != reason::kLogZero)
                acc += fastExpNonPositive(t - hi);
        }
        out[b] = hi + simd::fastLogPositive(acc);
    }
}

/** The same block through the production kernel itself
 *  (simd::sumLayerBlock — the one pc::CircuitEvaluator ships). */
void
sumKernelSimd(const double *terms, size_t fanin, double *scratch,
              double *out)
{
    constexpr size_t B = simd::kLanes;
    simd::store(out, simd::sumLayerBlock(fanin, scratch, [&](size_t e) {
                    return simd::load(terms + e * B);
                }));
}

/** The seed scalar forward recurrence, vectorizer off: the reference
 *  the SIMD leaf-batched hmm::sequenceLogLikelihood must match bitwise. */
REASON_NOVECTORIZE double
hmmForwardScalarRef(const hmm::Hmm &h, const hmm::Sequence &obs,
                    std::vector<double> &alpha, std::vector<double> &next)
{
    const size_t T = obs.size();
    const uint32_t N = h.numStates();
    alpha.resize(N);
    next.resize(N);
    REASON_NOVECTORIZE_LOOP
    for (uint32_t s = 0; s < N; ++s)
        alpha[s] = h.initial(s) * h.emission(s, obs[0]);
    double ll = 0.0;
    for (size_t t = 0;; ++t) {
        double c = 0.0;
        REASON_NOVECTORIZE_LOOP
        for (uint32_t s = 0; s < N; ++s)
            c += alpha[s];
        if (c <= 0.0)
            return reason::kLogZero;
        ll += std::log(c);
        REASON_NOVECTORIZE_LOOP
        for (uint32_t s = 0; s < N; ++s)
            alpha[s] /= c;
        if (t + 1 == T)
            break;
        REASON_NOVECTORIZE_LOOP
        for (uint32_t j = 0; j < N; ++j) {
            double acc = 0.0;
            REASON_NOVECTORIZE_LOOP
            for (uint32_t i = 0; i < N; ++i)
                acc += alpha[i] * h.transition(i, j);
            next[j] = acc * h.emission(j, obs[t + 1]);
        }
        alpha.swap(next);
    }
    return ll;
}

/**
 * Skewed mixture for the approximate tier: C product components over V
 * shared variables with geometrically decaying weights exp(-2.5 k) and
 * near-identical per-component leaf distributions (small perturbations
 * around one shared base), so the negligible-weight tail is negligible
 * *conditionally* too — pruning it is both fast and provably cheap.
 * At the default 1500 vars this is 800 x 151 + 1 = ~120.8k nodes, of
 * which a 1e-3 budget keeps a handful of components.
 */
reason::pc::Circuit
approxMixtureCircuit(reason::Rng &rng, uint32_t num_vars)
{
    using reason::pc::NodeId;
    const uint32_t V = std::max(4u, num_vars / 10);
    const uint32_t C = std::max(8u, num_vars * 8 / 15);
    reason::pc::Circuit mc(V, 2);
    std::vector<double> base(V);
    for (uint32_t v = 0; v < V; ++v)
        base[v] = rng.uniformReal(0.2, 0.8);
    std::vector<NodeId> comps;
    std::vector<double> weights;
    for (uint32_t k = 0; k < C; ++k) {
        std::vector<NodeId> leaves;
        for (uint32_t v = 0; v < V; ++v) {
            const double p =
                base[v] + rng.uniformReal(-0.002, 0.002);
            leaves.push_back(mc.addLeaf(v, {p, 1.0 - p}));
        }
        comps.push_back(mc.addProduct(std::move(leaves)));
        // exp(-2.5 k) underflows to exact 0 past k ~ 283: those
        // components stay in the circuit (the exact engine pays for
        // them) but carry -inf log-weight, the zero-mass case the
        // pruner must drop bitwise-safely.
        weights.push_back(std::exp(-2.5 * double(k)));
    }
    mc.markRoot(mc.addSum(std::move(comps), std::move(weights)));
    return mc;
}

/** Doubles that differ bitwise between two parameter sets. */
size_t
countCircuitParamMismatches(const reason::pc::Circuit &a,
                            const reason::pc::Circuit &b)
{
    auto differ = [](double x, double y) {
        uint64_t bx, by;
        std::memcpy(&bx, &x, sizeof bx);
        std::memcpy(&by, &y, sizeof by);
        return bx != by;
    };
    size_t mismatches = 0;
    for (reason::pc::NodeId id = 0; id < a.numNodes(); ++id) {
        const reason::pc::PcNode &na = a.node(id);
        const reason::pc::PcNode &nb = b.node(id);
        for (size_t k = 0; k < na.weights.size(); ++k)
            mismatches += differ(na.weights[k], nb.weights[k]);
        for (size_t k = 0; k < na.dist.size(); ++k)
            mismatches += differ(na.dist[k], nb.dist[k]);
    }
    return mismatches;
}

} // namespace

int
main(int argc, char **argv)
{
    uint32_t num_vars = 1500;
    size_t reps = 1000;
    unsigned threads = std::thread::hardware_concurrency();
    if (threads == 0)
        threads = 1;
    unsigned max_batch = 64;

    size_t positional = 0;
    for (int i = 1; i < argc; ++i) {
        uint64_t v = 0;
        if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
            if (!util::parseCount(argv[++i], 0, util::kMaxThreads, &v))
                return usageError();
            threads = unsigned(v);
        } else if (std::strcmp(argv[i], "--repeats") == 0 &&
                   i + 1 < argc) {
            if (!util::parseCount(argv[++i], 1, kMaxReps, &v))
                return usageError();
            reps = size_t(v);
        } else if (std::strcmp(argv[i], "--max-batch") == 0 &&
                   i + 1 < argc) {
            if (!util::parseCount(argv[++i], 1, kMaxBatchRows, &v))
                return usageError();
            max_batch = unsigned(v);
        } else if (positional == 0) {
            if (!util::parseCount(argv[i], 2, kMaxVars, &v))
                return usageError();
            num_vars = uint32_t(v);
            ++positional;
        } else if (positional == 1) {
            if (!util::parseCount(argv[i], 1, kMaxReps, &v))
                return usageError();
            reps = size_t(v);
            ++positional;
        } else {
            return usageError();
        }
    }
    if (threads == 0) { // --threads 0 = hardware concurrency
        threads = std::thread::hardware_concurrency();
        if (threads == 0)
            threads = 1;
    }

    const char *provenance_fmt =
        ",\"compiler\":\"%s\",\"flags\":\"%s\",\"build\":\"%s\","
        "\"simd_isa\":\"%s\",\"cpu_features\":\"%s\"";
    char provenance[768];
    std::snprintf(provenance, sizeof provenance, provenance_fmt,
                  compilerName(), REASON_BUILD_FLAGS, REASON_BUILD_TYPE,
                  simd::isaName(), simd::cpuFeatures());

    Rng rng(2026);
    // num_sums=8, num_inputs=16 yields ~72 interior nodes per region:
    // 1500 vars -> ~120k nodes, ~380k edges.
    pc::Circuit circuit = pc::randomCircuit(rng, num_vars, 2, 8, 16);
    std::printf("circuit: %zu nodes, %zu edges, %u vars\n",
                circuit.numNodes(), circuit.numEdges(),
                circuit.numVars());

    std::vector<pc::Assignment> data =
        pc::sampleDataset(rng, circuit, reps);

    // The serial baseline must stay serial regardless of the global
    // pool, so every "flat" engine below gets an explicit 1-thread pool.
    util::ThreadPool serial_pool(1);

    // --- log-domain: Circuit::logLikelihood vs flat batched ------------
    double sink = 0.0;
    // Warm-up both paths (page in the circuit, prime caches).
    sink += circuit.logLikelihood(data[0]);

    Clock::time_point t0 = Clock::now();
    pc::FlatCircuit flat(circuit);
    pc::CircuitEvaluator eval(flat, &serial_pool);
    double lower_ms = msSince(t0);
    sink += eval.logLikelihood(data[0]);

    t0 = Clock::now();
    double seed_acc = 0.0;
    for (const auto &x : data)
        seed_acc += circuit.logLikelihood(x);
    double seed_ms = msSince(t0);

    std::vector<double> flat_ll(data.size());
    t0 = Clock::now();
    eval.logLikelihoodBatch(data, flat_ll);
    double flat_ms = msSince(t0);

    double flat_acc = 0.0;
    double max_diff = 0.0;
    for (size_t i = 0; i < data.size(); ++i) {
        flat_acc += flat_ll[i];
        double d = std::fabs(flat_ll[i] -
                             circuit.logLikelihood(data[i]));
        max_diff = std::max(max_diff, d);
    }
    double speedup = seed_ms / (flat_ms + lower_ms);
    std::printf("BENCH_JSON {\"bench\":\"bench_eval\",\"engine\":"
                "\"circuit_loglik\",\"nodes\":%zu,\"edges\":%zu,"
                "\"reps\":%zu,\"seed_ms\":%.3f,\"flat_ms\":%.3f,"
                "\"lower_ms\":%.3f,\"speedup\":%.2f,"
                "\"max_abs_diff\":%.3e%s}\n",
                circuit.numNodes(), circuit.numEdges(), reps, seed_ms,
                flat_ms, lower_ms, speedup, max_diff, provenance);
    std::printf("seed %.3f ms, flat %.3f ms (+%.3f ms lowering): "
                "%.2fx %s (target >=5x), max |diff| %.2e\n",
                seed_ms, flat_ms, lower_ms, speedup,
                speedup >= 5.0 ? "PASS" : "BELOW TARGET", max_diff);

    // Bitwise disagreements between engines that must match exactly;
    // any nonzero total fails the run (nonzero exit) so CI catches
    // determinism regressions, not just slowdowns.
    size_t bitwise_failures = 0;
    size_t gate_failures = 0;

    // --- threaded wavefront variant ------------------------------------
    if (threads > 1) {
        util::ThreadPool mt_pool(threads);
        pc::CircuitEvaluator mt_eval(flat, &mt_pool);
        std::vector<double> mt_ll(data.size());
        mt_eval.logLikelihoodBatch(data, mt_ll); // warm per-worker scratch
        t0 = Clock::now();
        mt_eval.logLikelihoodBatch(data, mt_ll);
        double mt_ms = msSince(t0);

        // The wavefront engine must be *bit-identical* to serial flat.
        size_t mismatches = 0;
        for (size_t i = 0; i < data.size(); ++i)
            if (mt_ll[i] != flat_ll[i])
                ++mismatches;
        double mt_speedup = flat_ms / mt_ms;
        std::printf("BENCH_JSON {\"bench\":\"bench_eval\",\"engine\":"
                    "\"circuit_loglik_mt\",\"nodes\":%zu,\"edges\":%zu,"
                    "\"reps\":%zu,\"threads\":%u,\"flat_ms\":%.3f,"
                    "\"mt_ms\":%.3f,\"speedup_vs_flat\":%.2f,"
                    "\"bitwise_mismatches\":%zu%s}\n",
                    circuit.numNodes(), circuit.numEdges(), reps,
                    threads, flat_ms, mt_ms, mt_speedup, mismatches,
                    provenance);
        std::printf("threaded (%u workers): %.3f ms vs serial flat "
                    "%.3f ms: %.2fx %s (target >=2x with >=4 threads), "
                    "%zu bitwise mismatches\n",
                    threads, mt_ms, flat_ms, mt_speedup,
                    mt_speedup >= 2.0 ? "PASS" : "BELOW TARGET",
                    mismatches);
        bitwise_failures += mismatches;
    } else {
        std::printf("threaded section skipped (1 worker)\n");
    }

    // --- reverse-wavefront derivatives (marginal-query backward pass) --
    if (threads > 1) {
        util::ThreadPool mt_pool(threads);
        const size_t deriv_reps = std::min<size_t>(reps, 200);
        std::vector<uint64_t> serial_hash(deriv_reps);
        std::vector<double> logd;

        pc::CircuitEvaluator s_eval(flat, &serial_pool);
        // Warm scratch, then time upward + backward per assignment.
        logDerivativesInto(flat, s_eval.evaluate(data[0]), logd,
                           &serial_pool);
        t0 = Clock::now();
        for (size_t i = 0; i < deriv_reps; ++i) {
            logDerivativesInto(flat, s_eval.evaluate(data[i]), logd,
                               &serial_pool);
            serial_hash[i] = bitHash(logd);
        }
        double deriv_flat_ms = msSince(t0);

        pc::CircuitEvaluator mt_eval(flat, &mt_pool);
        logDerivativesInto(flat, mt_eval.evaluate(data[0]), logd,
                           &mt_pool);
        size_t mismatches = 0;
        t0 = Clock::now();
        for (size_t i = 0; i < deriv_reps; ++i) {
            logDerivativesInto(flat, mt_eval.evaluate(data[i]), logd,
                               &mt_pool);
            if (bitHash(logd) != serial_hash[i])
                ++mismatches;
        }
        double deriv_mt_ms = msSince(t0);
        double deriv_speedup = deriv_flat_ms / deriv_mt_ms;
        std::printf("BENCH_JSON {\"bench\":\"bench_eval\",\"engine\":"
                    "\"derivatives_mt\",\"nodes\":%zu,\"edges\":%zu,"
                    "\"reps\":%zu,\"threads\":%u,\"flat_ms\":%.3f,"
                    "\"mt_ms\":%.3f,\"speedup_vs_flat\":%.2f,"
                    "\"bitwise_mismatches\":%zu%s}\n",
                    circuit.numNodes(), circuit.numEdges(), deriv_reps,
                    threads, deriv_flat_ms, deriv_mt_ms, deriv_speedup,
                    mismatches, provenance);
        std::printf("derivatives (%u workers): %.3f ms vs serial "
                    "%.3f ms: %.2fx, %zu bitwise mismatches\n",
                    threads, deriv_mt_ms, deriv_flat_ms, deriv_speedup,
                    mismatches);
        bitwise_failures += mismatches;
    } else {
        std::printf("derivatives section skipped (1 worker)\n");
    }

    // --- sharded EM fit -------------------------------------------------
    if (threads > 1) {
        // Smaller model: EM is O(iters * samples * edges) and the point
        // here is shard scaling plus determinism, not raw size.
        const uint32_t em_vars = std::max(32u, num_vars / 16);
        const size_t em_samples = std::min<size_t>(reps, 512);
        pc::Circuit em_truth = pc::randomCircuit(rng, em_vars, 2, 4, 8);
        std::vector<pc::Assignment> em_data =
            pc::sampleDataset(rng, em_truth, em_samples);
        pc::Circuit em_model = pc::randomCircuit(rng, em_vars, 2, 4, 8);

        pc::EmOptions em_opts;
        em_opts.maxIterations = 4;
        em_opts.tolerance = 0.0; // run every iteration
        em_opts.shards = 0;

        // emTrain reaches the pool through the global knob.
        util::setGlobalThreads(1);
        pc::Circuit serial_model = em_model;
        t0 = Clock::now();
        pc::EmTrace serial_trace =
            pc::emTrain(serial_model, em_data, em_opts);
        double em_serial_ms = msSince(t0);

        util::setGlobalThreads(threads);
        pc::Circuit mt_model = em_model;
        t0 = Clock::now();
        pc::EmTrace mt_trace = pc::emTrain(mt_model, em_data, em_opts);
        double em_mt_ms = msSince(t0);
        util::setGlobalThreads(0); // restore the default pool

        size_t mismatches =
            countCircuitParamMismatches(serial_model, mt_model);
        if (bitHash(serial_trace.logLikelihood) !=
            bitHash(mt_trace.logLikelihood))
            ++mismatches;
        const unsigned em_shards =
            util::resolveShardCount(em_opts.shards, em_samples);
        double em_speedup = em_serial_ms / em_mt_ms;
        std::printf("BENCH_JSON {\"bench\":\"bench_eval\",\"engine\":"
                    "\"em_fit\",\"nodes\":%zu,\"edges\":%zu,"
                    "\"reps\":%zu,\"iters\":%u,\"threads\":%u,"
                    "\"shards\":%u,\"flat_ms\":%.3f,\"mt_ms\":%.3f,"
                    "\"speedup_vs_flat\":%.2f,"
                    "\"bitwise_mismatches\":%zu%s}\n",
                    em_model.numNodes(), em_model.numEdges(),
                    em_samples, serial_trace.iterations, threads,
                    em_shards, em_serial_ms, em_mt_ms, em_speedup,
                    mismatches, provenance);
        std::printf("em_fit (%u workers, %u shards): %.3f ms vs serial "
                    "%.3f ms: %.2fx, %zu bitwise mismatches\n",
                    threads, em_shards, em_mt_ms, em_serial_ms,
                    em_speedup, mismatches);
        bitwise_failures += mismatches;
    } else {
        std::printf("em_fit section skipped (1 worker)\n");
    }

    // --- SIMD sum-layer kernel vs forced-scalar reference ---------------
    {
        // Synthetic sum-layer blocks exercising exactly the canonical
        // two-pass logsumexp kernel (max scan, masked exp-accumulate,
        // vectorized log) against the bit-exact scalar-lane reference
        // with the auto-vectorizer disabled.  Outputs must match
        // bitwise; the SIMD build must clear >= 1.5x (the gate is
        // waived when the build itself is the scalar fallback).
        constexpr size_t kNodes = 2048;
        constexpr size_t kFanIn = 16;
        constexpr size_t B = simd::kLanes;
        const size_t kernel_rounds = std::max<size_t>(reps / 20, 10);
        std::vector<double> terms(kNodes * kFanIn * B);
        {
            Rng krng(77);
            for (double &t : terms) {
                t = -60.0 * krng.uniform01();
                if (krng.uniform01() < 0.05)
                    t = kLogZero; // masked term lanes
            }
            // A few dead blocks (every term -inf in a lane).
            for (size_t node = 0; node < kNodes; node += 97)
                for (size_t e = 0; e < kFanIn; ++e)
                    terms[(node * kFanIn + e) * B] = kLogZero;
        }
        std::vector<double> out_scalar(kNodes * B);
        std::vector<double> out_simd(kNodes * B);
        std::vector<double> simd_scratch(kFanIn * B);
        // Warm both paths once, then take the best of three timed
        // rounds each (robust against scheduler noise on CI hosts).
        auto run_scalar = [&] {
            for (size_t n = 0; n < kNodes; ++n)
                sumKernelScalarRef(terms.data() + n * kFanIn * B,
                                   kFanIn, out_scalar.data() + n * B);
        };
        auto run_simd = [&] {
            for (size_t n = 0; n < kNodes; ++n)
                sumKernelSimd(terms.data() + n * kFanIn * B, kFanIn,
                              simd_scratch.data(),
                              out_simd.data() + n * B);
        };
        run_scalar();
        run_simd();
        double scalar_ms = 1e300, simd_ms = 1e300;
        for (int round = 0; round < 3; ++round) {
            t0 = Clock::now();
            for (size_t r = 0; r < kernel_rounds; ++r)
                run_scalar();
            scalar_ms = std::min(scalar_ms, msSince(t0));
            t0 = Clock::now();
            for (size_t r = 0; r < kernel_rounds; ++r)
                run_simd();
            simd_ms = std::min(simd_ms, msSince(t0));
        }
        size_t mismatches = 0;
        for (size_t i = 0; i < out_scalar.size(); ++i)
            mismatches += bitsDiffer(out_scalar[i], out_simd[i]);

        // Batch-shape/thread sweep on the real circuit: every row of
        // every batch shape must match the single-row walk bitwise.
        for (unsigned sweep_threads : {1u, 2u, 4u}) {
            util::ThreadPool sweep_pool(sweep_threads);
            pc::CircuitEvaluator batch_eval(flat, &sweep_pool);
            pc::CircuitEvaluator row_eval(flat, &serial_pool);
            for (size_t n : {size_t(1), size_t(3), size_t(8),
                             size_t(13), size_t(21)}) {
                std::vector<pc::Assignment> rows(
                    data.begin(), data.begin() + std::min(n, data.size()));
                std::vector<double> batch_ll(rows.size());
                batch_eval.logLikelihoodBatch(rows, batch_ll);
                for (size_t i = 0; i < rows.size(); ++i)
                    mismatches += bitsDiffer(
                        batch_ll[i], row_eval.logLikelihood(rows[i]));
            }
        }

        const double kernel_speedup = scalar_ms / simd_ms;
        const bool is_scalar_build =
            std::strcmp(simd::isaName(), "scalar") == 0;
        const bool below_target =
            !is_scalar_build && kernel_speedup < 1.5;
        std::printf("BENCH_JSON {\"bench\":\"bench_eval\",\"engine\":"
                    "\"kernel_logsumexp\",\"nodes\":%zu,\"edges\":%zu,"
                    "\"reps\":%zu,\"fanin\":%zu,\"scalar_ms\":%.3f,"
                    "\"simd_ms\":%.3f,\"speedup_vs_scalar\":%.2f,"
                    "\"bitwise_mismatches\":%zu%s}\n",
                    kNodes, kNodes * kFanIn * B, kernel_rounds, kFanIn,
                    scalar_ms, simd_ms, kernel_speedup, mismatches,
                    provenance);
        std::printf("kernel_logsumexp (%s): scalar %.3f ms, simd "
                    "%.3f ms: %.2fx %s (target >=1.5x unless scalar "
                    "build), %zu bitwise mismatches\n",
                    simd::isaName(), scalar_ms, simd_ms, kernel_speedup,
                    below_target ? "BELOW TARGET" : "PASS", mismatches);
        bitwise_failures += mismatches;
        if (below_target) {
            std::fprintf(stderr,
                         "bench_eval: kernel_logsumexp %.2fx below the "
                         "1.5x SIMD target on a %s build\n",
                         kernel_speedup, simd::isaName());
            ++bitwise_failures;
        }
    }

    // --- SIMD-width HMM leaf batching vs forced-scalar reference --------
    {
        // The library forward pass (transposed emission columns +
        // rank-1 SIMD matvec) against the seed scalar recurrence with
        // the vectorizer disabled.  The restructured loops preserve
        // per-lane accumulation order, so outputs must match bitwise.
        Rng hrng(4242);
        const uint32_t kStates = 48;
        const uint32_t kSymbols = 24;
        const size_t kSeqs = 48;
        const size_t kLen = 64;
        hmm::Hmm model = hmm::Hmm::random(hrng, kStates, kSymbols, 0.7);
        std::vector<hmm::Sequence> seqs(kSeqs);
        for (auto &s : seqs)
            model.sample(hrng, kLen, &s);

        std::vector<double> scalar_ll(kSeqs), simd_ll(kSeqs);
        std::vector<double> a_scratch, n_scratch;
        auto run_scalar = [&] {
            for (size_t i = 0; i < kSeqs; ++i)
                scalar_ll[i] = hmmForwardScalarRef(model, seqs[i],
                                                   a_scratch, n_scratch);
        };
        auto run_simd = [&] {
            hmm::sequenceLogLikelihoods(model, seqs, simd_ll,
                                        &serial_pool);
        };
        run_scalar();
        run_simd();
        const size_t hmm_rounds = std::max<size_t>(reps / 50, 4);
        double scalar_ms = 1e300, simd_ms = 1e300;
        for (int round = 0; round < 3; ++round) {
            t0 = Clock::now();
            for (size_t r = 0; r < hmm_rounds; ++r)
                run_scalar();
            scalar_ms = std::min(scalar_ms, msSince(t0));
            t0 = Clock::now();
            for (size_t r = 0; r < hmm_rounds; ++r)
                run_simd();
            simd_ms = std::min(simd_ms, msSince(t0));
        }
        size_t mismatches = 0;
        for (size_t i = 0; i < kSeqs; ++i)
            mismatches += bitsDiffer(scalar_ll[i], simd_ll[i]);
        const double hmm_speedup = scalar_ms / simd_ms;
        std::printf("BENCH_JSON {\"bench\":\"bench_eval\",\"engine\":"
                    "\"hmm_leaf_batch\",\"nodes\":%u,\"edges\":%u,"
                    "\"reps\":%zu,\"seqs\":%zu,\"seq_len\":%zu,"
                    "\"scalar_ms\":%.3f,\"simd_ms\":%.3f,"
                    "\"speedup_vs_scalar\":%.2f,"
                    "\"bitwise_mismatches\":%zu%s}\n",
                    kStates,
                    kStates * kStates + kStates * kSymbols, hmm_rounds,
                    kSeqs, kLen, scalar_ms, simd_ms, hmm_speedup,
                    mismatches, provenance);
        std::printf("hmm_leaf_batch (%s): scalar %.3f ms, simd %.3f "
                    "ms: %.2fx, %zu bitwise mismatches\n",
                    simd::isaName(), scalar_ms, simd_ms, hmm_speedup,
                    mismatches);
        bitwise_failures += mismatches;
    }

    // --- async serving engine: coalesced vs sequential -----------------
    {
        // serveThreads is pinned to 1 so the measured factor isolates
        // cross-request coalescing (SoA batch amortization) from
        // wavefront threading; every row runs through the canonical
        // SIMD block kernel, so outputs must match bitwise.
        sys::ServeOptions sopts;
        sopts.maxBatch = max_batch;
        sopts.serveThreads = 1;
        sopts.maxCoalesceWindowUs = 0;

        // Sequential baseline: submit-and-wait one request at a time
        // (batch occupancy 1, no overlap between client and engine).
        std::vector<double> seq_ll(data.size());
        double seq_ms = 0.0;
        {
            sys::ReasonEngine engine(sopts);
            sys::Session session = engine.createSession(circuit);
            session.wait(session.submit(data[0])); // warm evaluator
            t0 = Clock::now();
            for (size_t i = 0; i < data.size(); ++i)
                seq_ll[i] =
                    session.wait(session.submit(data[i]))->outputs[0];
            seq_ms = msSince(t0);
        }

        // Coalesced serving: two sessions over the same circuit (the
        // lowering cache gives them one coalescing key); the backlog
        // is built while the dispatcher is paused, then released.
        std::vector<double> serve_ll(data.size());
        std::vector<double> lat_ms(data.size());
        double serve_ms = 0.0;
        sys::EngineStats warm{}, stats{};
        {
            sys::ReasonEngine engine(sopts);
            sys::Session sessions[2] = {engine.createSession(circuit),
                                        engine.createSession(circuit)};
            sessions[0].wait(sessions[0].submit(data[0])); // warm
            engine.pause();
            warm = engine.stats();
            std::vector<sys::RequestHandle> handles(data.size());
            for (size_t i = 0; i < data.size(); ++i)
                handles[i] = sessions[i % 2].submit(data[i]);
            t0 = Clock::now();
            engine.resume();
            for (size_t i = 0; i < data.size(); ++i) {
                std::shared_ptr<const sys::Request> r =
                    sessions[i % 2].wait(handles[i]);
                serve_ll[i] = r->outputs[0];
                lat_ms[i] = double(r->latencyNs()) * 1e-6;
            }
            serve_ms = msSince(t0);
            stats = engine.stats();
        }

        size_t mismatches = 0;
        for (size_t i = 0; i < data.size(); ++i) {
            uint64_t ba, bb;
            std::memcpy(&ba, &seq_ll[i], sizeof ba);
            std::memcpy(&bb, &serve_ll[i], sizeof bb);
            mismatches += ba != bb;
        }
        const uint64_t serve_batches = stats.batches - warm.batches;
        const double occupancy =
            serve_batches == 0
                ? 0.0
                : double(stats.rows - warm.rows) /
                      double(serve_batches);
        std::sort(lat_ms.begin(), lat_ms.end());
        auto percentile = [&](double p) {
            return lat_ms[std::min(lat_ms.size() - 1,
                                   size_t(p * double(lat_ms.size())))];
        };
        const double speedup = seq_ms / serve_ms;
        const double rps =
            double(data.size()) / (serve_ms * 1e-3);
        std::printf("BENCH_JSON {\"bench\":\"bench_eval\",\"engine\":"
                    "\"serving\",\"nodes\":%zu,\"edges\":%zu,"
                    "\"reps\":%zu,\"threads\":%u,\"max_batch\":%u,"
                    "\"clients\":2,\"seq_ms\":%.3f,\"serve_ms\":%.3f,"
                    "\"speedup_vs_seq\":%.2f,\"requests_per_sec\":%.1f,"
                    "\"p50_ms\":%.4f,\"p99_ms\":%.4f,"
                    "\"mean_batch_occupancy\":%.2f,"
                    "\"bitwise_mismatches\":%zu%s}\n",
                    circuit.numNodes(), circuit.numEdges(), data.size(),
                    sopts.serveThreads, max_batch, seq_ms, serve_ms,
                    speedup, rps, percentile(0.50), percentile(0.99),
                    occupancy, mismatches, provenance);
        std::printf("serving: coalesced %.3f ms vs sequential %.3f ms: "
                    "%.2fx %s (target >=2x), occupancy %.2f %s, "
                    "%zu bitwise mismatches\n",
                    serve_ms, seq_ms, speedup,
                    speedup >= 2.0 ? "PASS" : "BELOW TARGET", occupancy,
                    occupancy > 1.0 ? "PASS" : "BELOW TARGET",
                    mismatches);
        bitwise_failures += mismatches;
    }

    // --- scale-out serving: N dispatchers, bounded queue, shedding -----
    if (threads > 1) {
        // One-at-a-time reference: the bitwise ground truth every
        // multi-dispatcher configuration must reproduce exactly.
        sys::ServeOptions ref_opts;
        ref_opts.maxBatch = max_batch;
        ref_opts.serveThreads = 1;
        std::vector<double> ref_ll(data.size());
        {
            sys::ReasonEngine engine(ref_opts);
            sys::Session session = engine.createSession(circuit);
            session.wait(session.submit(data[0])); // warm evaluator
            for (size_t i = 0; i < data.size(); ++i)
                ref_ll[i] =
                    session.wait(session.submit(data[i]))->outputs[0];
        }

        constexpr size_t kClients = 4;
        size_t mismatches = 0;
        // Identity sweep: dispatcher counts x queue policies (plus
        // linger autotuning on the widest config).  Backlog is built
        // under pause so coalescing itself is deterministic; the
        // *outputs* must be bit-identical in any case.
        double serve_ms = 0.0, occupancy = 0.0;
        double p50_ms = 0.0, p99_ms = 0.0, rps = 0.0;
        for (unsigned dispatchers : {1u, 2u, 4u}) {
            for (sys::QueuePolicy policy :
                 {sys::QueuePolicy::RejectNew,
                  sys::QueuePolicy::ShedOldest}) {
                sys::ServeOptions sopts;
                sopts.maxBatch = max_batch;
                sopts.serveThreads = 1;
                sopts.dispatchers = dispatchers;
                sopts.queuePolicy = policy;
                sopts.autoLingerWindow = dispatchers == 4;
                sys::ReasonEngine engine(sopts);
                engine.pause();
                sys::EngineStats stats{};
                std::vector<sys::Session> sessions;
                for (size_t c = 0; c < kClients; ++c)
                    sessions.push_back(engine.createSession(circuit));
                std::vector<sys::RequestHandle> handles(data.size());
                for (size_t i = 0; i < data.size(); ++i)
                    handles[i] =
                        sessions[i % kClients].submit(data[i]);
                const auto t0 = Clock::now();
                engine.resume();
                for (size_t i = 0; i < data.size(); ++i) {
                    std::shared_ptr<const sys::Request> r =
                        sessions[i % kClients].wait(handles[i]);
                    uint64_t ba, bb;
                    std::memcpy(&ba, &ref_ll[i], sizeof ba);
                    std::memcpy(&bb, &r->outputs[0], sizeof bb);
                    mismatches += r->error != sys::REASON_OK ||
                                  ba != bb;
                }
                const double ms = msSince(t0);
                stats = engine.stats();
                // Report throughput/latency of the widest sweep
                // configuration (4 dispatchers, shed policy).
                if (dispatchers == 4 &&
                    policy == sys::QueuePolicy::ShedOldest) {
                    serve_ms = ms;
                    rps = double(data.size()) / (ms * 1e-3);
                    // No batch ran before resume() (warm.batches is
                    // 0), so the engine-lifetime mean is exactly the
                    // drain-phase occupancy.
                    occupancy = stats.meanBatchOccupancy;
                    p50_ms = stats.p50LatencyMs;
                    p99_ms = stats.p99LatencyMs;
                }
            }
        }

        // Deterministic 2x-capacity overload: build the backlog while
        // paused, so exactly `capacity` requests are admitted and
        // `capacity` shed (ShedOldest keeps the newest).  Queue depth
        // must never exceed capacity, and the latency of admitted
        // requests must be bounded by capacity — not by offered load.
        const size_t capacity =
            std::max<size_t>(8, std::min<size_t>(data.size() / 2, 256));
        const size_t offered = 2 * capacity;
        uint64_t shed = 0;
        size_t admitted = 0;
        sys::EngineStats over_stats{};
        {
            sys::ServeOptions sopts;
            sopts.maxBatch = max_batch;
            sopts.serveThreads = 1;
            sopts.dispatchers = 2;
            sopts.queueCapacity = capacity;
            sopts.queuePolicy = sys::QueuePolicy::ShedOldest;
            sys::ReasonEngine engine(sopts);
            engine.pause();
            std::vector<sys::Session> sessions;
            for (size_t c = 0; c < kClients; ++c)
                sessions.push_back(engine.createSession(circuit));
            std::vector<sys::RequestHandle> handles(offered);
            for (size_t i = 0; i < offered; ++i)
                handles[i] = sessions[i % kClients].submit(
                    data[i % data.size()]);
            engine.resume();
            for (size_t i = 0; i < offered; ++i) {
                std::shared_ptr<const sys::Request> r =
                    sessions[i % kClients].wait(handles[i]);
                if (r->error == sys::REASON_ERR_OVERLOAD) {
                    ++shed;
                    continue;
                }
                ++admitted;
                uint64_t ba, bb;
                std::memcpy(&ba, &ref_ll[i % data.size()], sizeof ba);
                std::memcpy(&bb, &r->outputs[0], sizeof bb);
                mismatches += r->error != sys::REASON_OK || ba != bb;
            }
            over_stats = engine.stats();
        }
        const double shed_rate = double(shed) / double(offered);
        const double over_p99 = over_stats.p99LatencyMs;

        // Gates: exact shed accounting, bounded depth, bounded
        // admitted-latency tail.  The wide absolute p99 bound only
        // rejects runaway queueing; shedding is what keeps the tail
        // independent of offered load.
        const bool shed_ok = shed == capacity && admitted == capacity;
        const bool depth_ok = over_stats.maxQueueDepth <= capacity;
        const bool p99_ok = over_p99 > 0.0 && over_p99 <= 1000.0;
        gate_failures += !shed_ok + !depth_ok + !p99_ok;

        std::printf(
            "BENCH_JSON {\"bench\":\"bench_eval\",\"engine\":"
            "\"serving_mt\",\"nodes\":%zu,\"edges\":%zu,"
            "\"reps\":%zu,\"threads\":%u,\"dispatchers\":4,"
            "\"max_batch\":%u,\"clients\":%zu,\"serve_ms\":%.3f,"
            "\"requests_per_sec\":%.1f,\"p50_ms\":%.4f,"
            "\"p99_ms\":%.4f,\"mean_batch_occupancy\":%.2f,"
            "\"capacity\":%zu,\"shed_rate\":%.3f,"
            "\"max_queue_depth\":%llu,\"overload_p99_ms\":%.4f,"
            "\"bitwise_mismatches\":%zu%s}\n",
            circuit.numNodes(), circuit.numEdges(), data.size(),
            1u, max_batch, kClients, serve_ms, rps, p50_ms, p99_ms,
            occupancy, capacity, shed_rate,
            (unsigned long long)over_stats.maxQueueDepth, over_p99,
            mismatches, provenance);
        std::printf(
            "serving_mt: %.1f req/s over 4 dispatchers (p50 %.4f "
            "ms, p99 %.4f ms, occupancy %.2f), %zu bitwise "
            "mismatches %s\n",
            rps, p50_ms, p99_ms, occupancy, mismatches,
            mismatches == 0 ? "PASS" : "FAIL");
        std::printf(
            "serving_mt overload: 2x capacity %zu -> shed rate %.3f "
            "%s, max depth %llu %s, admitted p99 %.4f ms %s\n",
            capacity, shed_rate, shed_ok ? "PASS" : "FAIL",
            (unsigned long long)over_stats.maxQueueDepth,
            depth_ok ? "PASS" : "FAIL", over_p99,
            p99_ok ? "PASS" : "FAIL");
        bitwise_failures += mismatches;
    }

    // --- approximate/anytime tier: budgeted evaluator + bound gate ------
    {
        // Speedup leg: the skewed mixture (~120k nodes at the default
        // size) where a 1e-3 budget keeps a handful of components.
        // Exact baseline is the production serial flat engine; the
        // approximate tier must clear >= 10x with actual error
        // |dlogp| <= 1e-3 (gate waived on small bench sizes, where the
        // mixture is too tiny for either the timing or the pruning
        // ratio to mean anything).
        Rng arng(909);
        pc::Circuit mix = approxMixtureCircuit(arng, num_vars);
        pc::FlatCircuit mix_flat(mix);
        const double gate_budget = 1e-3;
        pc::ApproxOptions aopts;
        aopts.budget = gate_budget;
        pc::ApproxEvaluator aeval(mix_flat, aopts);
        pc::CircuitEvaluator mix_eval(mix_flat, &serial_pool);

        const size_t approx_reps = std::min<size_t>(reps, 200);
        std::vector<pc::Assignment> mix_rows =
            pc::sampleDataset(arng, mix, approx_reps);
        std::vector<double> exact_ll(mix_rows.size());
        std::vector<pc::ApproxResult> approx_res;
        mix_eval.logLikelihoodBatch(mix_rows, exact_ll); // warm
        aeval.queryBatch(mix_rows, approx_res);          // warm
        double exact_ms = 1e300, approx_ms = 1e300;
        for (int round = 0; round < 3; ++round) {
            t0 = Clock::now();
            mix_eval.logLikelihoodBatch(mix_rows, exact_ll);
            exact_ms = std::min(exact_ms, msSince(t0));
            t0 = Clock::now();
            aeval.queryBatch(mix_rows, approx_res);
            approx_ms = std::min(approx_ms, msSince(t0));
        }
        size_t violations = 0;
        double max_dlogp = 0.0, sum_dlogp = 0.0;
        for (size_t i = 0; i < mix_rows.size(); ++i) {
            const pc::ApproxResult &r = approx_res[i];
            violations +=
                !(r.lo <= exact_ll[i] && exact_ll[i] <= r.hi);
            const double d = std::fabs(r.value - exact_ll[i]);
            sum_dlogp += d;
            max_dlogp = std::max(max_dlogp, d);
        }
        const double mean_dlogp =
            mix_rows.empty() ? 0.0
                             : sum_dlogp / double(mix_rows.size());
        const double approx_speedup = exact_ms / approx_ms;

        // Differential corpus: the certified interval must contain the
        // exact answer on every query of 200 adversarial random
        // circuits (shared DAGs, zero weights, non-decomposable
        // structure) across the budget sweep; budget 0 must be
        // *bit-identical* to the exact engine, and rebuilding the
        // evaluator must reproduce every bit (determinism).
        size_t corpus_checks = 0, identity_mismatches = 0,
               determinism_mismatches = 0;
        Rng crng(20260807);
        for (int cc = 0; cc < 200; ++cc) {
            pc::Circuit c = testutil::randomTestCircuit(crng);
            pc::FlatCircuit cf(c);
            pc::CircuitEvaluator cev(cf, &serial_pool);
            const std::vector<pc::Assignment> rows =
                testutil::randomPartialAssignments(crng, c, 4, 0.3);
            for (double budget : {0.0, 0.01, 0.1, 0.5, 1.0}) {
                pc::ApproxOptions o;
                o.budget = budget;
                pc::ApproxEvaluator ae(cf, o);
                pc::ApproxEvaluator ae2(cf, o);
                for (const pc::Assignment &x : rows) {
                    const double exact = cev.logLikelihood(x);
                    const pc::ApproxResult r = ae.query(x);
                    const pc::ApproxResult r2 = ae2.query(x);
                    ++corpus_checks;
                    violations += !(r.lo <= exact && exact <= r.hi);
                    determinism_mismatches +=
                        bitsDiffer(r.value, r2.value) ||
                        bitsDiffer(r.lo, r2.lo) ||
                        bitsDiffer(r.hi, r2.hi);
                    if (budget == 0.0)
                        identity_mismatches +=
                            bitsDiffer(r.value, exact) ||
                            bitsDiffer(r.lo, exact) ||
                            bitsDiffer(r.hi, exact);
                }
            }
        }

        // Bound violations and bitwise regressions always fail the
        // run; the speedup/accuracy gate needs the full-size mixture.
        const bool tiny_mixture = mix_flat.numNodes() < 20000;
        const bool speed_ok =
            tiny_mixture ||
            (approx_speedup >= 10.0 && max_dlogp <= 1e-3);
        gate_failures += violations != 0;
        gate_failures += !speed_ok;
        bitwise_failures +=
            identity_mismatches + determinism_mismatches;

        std::printf(
            "BENCH_JSON {\"bench\":\"bench_eval\",\"engine\":"
            "\"approx_tier\",\"nodes\":%zu,\"edges\":%zu,"
            "\"reps\":%zu,\"budget\":%.0e,\"kept_nodes\":%zu,"
            "\"total_nodes\":%zu,\"exact_ms\":%.3f,"
            "\"approx_ms\":%.3f,\"speedup_vs_exact\":%.2f,"
            "\"mean_abs_dlogp\":%.3e,\"max_abs_dlogp\":%.3e,"
            "\"corpus_circuits\":200,\"corpus_checks\":%zu,"
            "\"bound_violations\":%zu,\"bitwise_mismatches\":%zu%s}\n",
            mix_flat.numNodes(), mix_flat.numEdges(), mix_rows.size(),
            gate_budget, aeval.keptNodes(), aeval.totalNodes(),
            exact_ms, approx_ms, approx_speedup, mean_dlogp,
            max_dlogp, corpus_checks, violations,
            identity_mismatches + determinism_mismatches, provenance);
        std::printf(
            "approx_tier: exact %.3f ms, approx %.3f ms (%zu/%zu "
            "nodes kept): %.2fx %s (target >=10x at |dlogp| <= 1e-3"
            "%s), max |dlogp| %.2e, %zu bound violations over %zu "
            "corpus checks, %zu identity / %zu determinism "
            "mismatches\n",
            exact_ms, approx_ms, aeval.keptNodes(),
            aeval.totalNodes(), approx_speedup,
            speed_ok && violations == 0 ? "PASS" : "FAIL",
            tiny_mixture ? ", waived: tiny mixture" : "", max_dlogp,
            violations, corpus_checks, identity_mismatches,
            determinism_mismatches);
    }

    // --- CNF -> d-DNNF -> FlatCircuit compilation differential ---------
    // A 200-formula randomized corpus (mixed clause lengths with
    // duplicates, planted SAT, forced UNSAT, sparse formulas with
    // unused variables) through the four WMC routes the tests pin:
    // legacy Dag wmc, direct flat lowering, streamed `.nnf`
    // round-trip (must be byte-identical to the direct lowering), and
    // brute-force enumeration.  Any mismatch fails the run.
    {
        Rng crng(0xc0de);
        std::vector<logic::CnfFormula> corpus;
        auto randomClause = [&](logic::CnfFormula &f, uint32_t vars,
                                uint32_t len) {
            logic::Clause c;
            for (uint32_t k = 0; k < len; ++k)
                c.push_back(logic::Lit::make(
                    uint32_t(crng.uniformInt(0, vars - 1)),
                    crng.bernoulli(0.5)));
            f.addClause(c);
        };
        while (corpus.size() < 200) {
            switch (corpus.size() % 4) {
              case 0: {
                uint32_t vars = uint32_t(crng.uniformInt(2, 12));
                logic::CnfFormula f;
                f.ensureVars(vars);
                uint32_t n = uint32_t(crng.uniformInt(1, vars * 3));
                for (uint32_t c = 0; c < n; ++c)
                    randomClause(f, vars,
                                 uint32_t(crng.uniformInt(1, 4)));
                if (f.numClauses() > 0)
                    f.addClause(f.clauses()[0]); // duplicate clause
                corpus.push_back(std::move(f));
                break;
              }
              case 1:
                corpus.push_back(logic::plantedKSat(
                    crng, uint32_t(crng.uniformInt(4, 12)), 24, 3));
                break;
              case 2: {
                uint32_t vars = uint32_t(crng.uniformInt(2, 10));
                logic::CnfFormula f;
                f.ensureVars(vars);
                for (uint32_t c = 0; c < vars; ++c)
                    randomClause(f, vars,
                                 uint32_t(crng.uniformInt(2, 3)));
                f.addClause({1});
                f.addClause({-1}); // force UNSAT
                corpus.push_back(std::move(f));
                break;
              }
              default: {
                logic::CnfFormula f;
                f.ensureVars(uint32_t(crng.uniformInt(6, 12)));
                for (uint32_t c = 0; c < 4; ++c)
                    randomClause(f, 2,
                                 uint32_t(crng.uniformInt(1, 2)));
                corpus.push_back(std::move(f));
                break;
              }
            }
        }

        size_t wmc_mismatches = 0;
        size_t stream_mismatches = 0;
        size_t dnnf_nodes = 0;
        size_t dnnf_edges = 0;
        double compile_ms = 0.0, lower_ms2 = 0.0, stream_ms = 0.0;
        auto close = [](double a, double b) {
            if (std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b))
                return true;
            double s = std::max({1.0, std::fabs(a), std::fabs(b)});
            return std::fabs(a - b) <= 1e-10 * s;
        };
        for (const logic::CnfFormula &f : corpus) {
            t0 = Clock::now();
            logic::DnnfGraph g = logic::compileToDnnf(f);
            compile_ms += msSince(t0);
            dnnf_nodes += g.numNodes();
            dnnf_edges += g.numEdges();
            logic::LitWeights w =
                logic::LitWeights::random(crng, f.numVars());

            double dag_wmc = g.wmc(w);

            t0 = Clock::now();
            pc::FlatCircuit direct = pc::flatFromDnnf(g, w);
            lower_ms2 += msSince(t0);
            double flat_log = pc::flatLogWmc(direct);

            std::istringstream in(logic::toC2dFormat(g));
            pc::FlatCircuit streamed;
            logic::NnfError err;
            t0 = Clock::now();
            bool ok = pc::streamNnfToFlat(in, w, &streamed, &err);
            stream_ms += msSince(t0);
            if (!ok ||
                pc::structuralFingerprint(streamed) !=
                    pc::structuralFingerprint(direct) ||
                std::bit_cast<uint64_t>(pc::flatLogWmc(streamed)) !=
                    std::bit_cast<uint64_t>(flat_log))
                ++stream_mismatches;

            double brute = 0.0;
            for (uint64_t m = 0; m < (uint64_t(1) << f.numVars());
                 ++m) {
                std::vector<bool> a(f.numVars());
                for (uint32_t v = 0; v < f.numVars(); ++v)
                    a[v] = (m >> v) & 1;
                if (!f.evaluate(a))
                    continue;
                double p = 1.0;
                for (uint32_t v = 0; v < f.numVars(); ++v)
                    p *= a[v] ? w.pos[v] : w.neg[v];
                brute += p;
            }
            double flat_wmc = std::exp(flat_log);
            if (!close(dag_wmc, flat_wmc) || !close(dag_wmc, brute) ||
                !close(flat_wmc, brute))
                ++wmc_mismatches;
        }
        double formulas_per_s =
            compile_ms > 0.0 ? 200.0 / (compile_ms / 1000.0) : 0.0;
        const bool throughput_ok = formulas_per_s >= 20.0;
        bitwise_failures += stream_mismatches;
        gate_failures += wmc_mismatches != 0;
        gate_failures += !throughput_ok;
        std::printf(
            "BENCH_JSON {\"bench\":\"bench_eval\",\"engine\":"
            "\"compile_flat\",\"nodes\":%zu,\"edges\":%zu,"
            "\"reps\":200,\"formulas\":200,"
            "\"compile_ms\":%.3f,\"lower_ms\":%.3f,\"stream_ms\":%.3f,"
            "\"formulas_per_s\":%.1f,\"wmc_mismatches\":%zu,"
            "\"bitwise_mismatches\":%zu%s}\n",
            dnnf_nodes, dnnf_edges, compile_ms, lower_ms2, stream_ms,
            formulas_per_s, wmc_mismatches, stream_mismatches,
            provenance);
        std::printf(
            "compile_flat: 200 formulas (%zu d-DNNF nodes) compiled in "
            "%.3f ms (%.0f/s %s, target >=20/s), lower %.3f ms, stream "
            "%.3f ms, %zu WMC mismatches, %zu streamed-vs-direct "
            "mismatches\n",
            dnnf_nodes, compile_ms, formulas_per_s,
            throughput_ok ? "PASS" : "BELOW TARGET", lower_ms2,
            stream_ms, wmc_mismatches, stream_mismatches);
    }

    // --- DRAM timing model: locality, invariants, determinism ----------
    // Drives the arch/dram cycle model (the path behind accelerator
    // input preload and clause-miss DMA) with a streaming and an
    // equal-footprint random workload through row-coalescing DMA
    // sessions, then a randomized single-request corpus.  Gates:
    // streaming must see a strictly higher row-hit rate and fewer
    // cycles per logical byte than random; every corpus response must
    // respect the minimum closed-row latency and the sustained
    // bandwidth must stay at or below the structural peak; and the
    // entire run must produce bit-identical cycle totals when
    // repeated (the model is pure integer arithmetic).
    {
        const arch::ArchConfig acfg;
        const uint64_t kFootprintWords = 64 * 1024; // 512 KiB footprint
        const size_t kSessionWords = 256;           // one program session
        const int kCorpusRequests = 20000;

        struct DramRunResult
        {
            uint64_t streamCycles = 0, randomCycles = 0;
            uint64_t streamHits = 0, streamBursts = 0, streamBytes = 0;
            uint64_t randomHits = 0, randomBursts = 0, randomBytes = 0;
            uint64_t corpusChecksum = 0;
            uint64_t blpX100 = 0;
            size_t latencyViolations = 0;
            size_t bandwidthViolations = 0;
        };
        auto driveWorkload = [&](const std::vector<uint64_t> &words,
                                 arch::DramModel &dram) -> uint64_t {
            arch::DmaSession session(dram, 8);
            uint64_t now = 0;
            for (size_t i = 0; i < words.size(); ++i) {
                session.requestWord(words[i] * 8);
                if ((i + 1) % kSessionWords == 0 ||
                    i + 1 == words.size())
                    now = session.complete(now);
            }
            return now;
        };
        auto runOnce = [&]() -> DramRunResult {
            DramRunResult r;
            std::vector<uint64_t> words(kFootprintWords);
            for (uint64_t i = 0; i < kFootprintWords; ++i)
                words[i] = i;

            arch::DramModel streamDram(acfg);
            r.streamCycles = driveWorkload(words, streamDram);
            r.streamHits = streamDram.rowHits();
            r.streamBursts = streamDram.bursts();
            r.streamBytes = streamDram.bytesRead();
            r.blpX100 = uint64_t(
                streamDram.meanQueuedBankParallelism() * 100.0 + 0.5);

            Rng wrng(31337);
            wrng.shuffle(words);
            arch::DramModel randomDram(acfg);
            r.randomCycles = driveWorkload(words, randomDram);
            r.randomHits = randomDram.rowHits();
            r.randomBursts = randomDram.bursts();
            r.randomBytes = randomDram.bytesRead();

            // Randomized invariant corpus: single reads with jittered
            // issue times over a 16 MiB space.
            arch::DramModel corpusDram(acfg);
            const uint64_t min_latency =
                corpusDram.minLatencyCycles();
            Rng crng2(0xd7a3);
            uint64_t now = 0, first_issue = 0, last_done = 0;
            for (int i = 0; i < kCorpusRequests; ++i) {
                now += uint64_t(crng2.uniformInt(0, 8));
                uint64_t addr =
                    uint64_t(crng2.uniformInt(0, (16 << 20) - 1));
                size_t bytes = size_t(crng2.uniformInt(1, 256));
                uint64_t done = corpusDram.read(now, addr, bytes);
                // No response before the minimum (open-row) latency;
                // closed/conflicting rows only take longer.
                r.latencyViolations += done < now + min_latency;
                r.corpusChecksum += done;
                if (i == 0)
                    first_issue = now;
                last_done = std::max(last_done, done);
            }
            const double elapsed = double(last_done - first_issue);
            const double sustained =
                elapsed > 0.0 ? double(corpusDram.bytesRead()) / elapsed
                              : 0.0;
            r.bandwidthViolations +=
                sustained > corpusDram.peakBytesPerCycle() + 1e-9;
            // The streaming run must also respect peak bandwidth.
            const double stream_bpc =
                r.streamCycles
                    ? double(r.streamBytes) / double(r.streamCycles)
                    : 0.0;
            r.bandwidthViolations +=
                stream_bpc > streamDram.peakBytesPerCycle() + 1e-9;
            return r;
        };

        t0 = Clock::now();
        const DramRunResult run1 = runOnce();
        double dram_ms = msSince(t0);
        const DramRunResult run2 = runOnce();

        const size_t determinism_mismatches =
            (run1.streamCycles != run2.streamCycles) +
            (run1.randomCycles != run2.randomCycles) +
            (run1.corpusChecksum != run2.corpusChecksum) +
            (run1.streamHits != run2.streamHits) +
            (run1.randomHits != run2.randomHits);
        const size_t invariant_violations =
            run1.latencyViolations + run1.bandwidthViolations;

        const double stream_hit_rate =
            run1.streamBursts
                ? double(run1.streamHits) / double(run1.streamBursts)
                : 0.0;
        const double random_hit_rate =
            run1.randomBursts
                ? double(run1.randomHits) / double(run1.randomBursts)
                : 0.0;
        // Cycles per *logical* byte: both workloads deliver the same
        // 512 KiB footprint, so over-fetch from poor locality shows up
        // here as well as in the hit rate.
        const double footprint_bytes = double(kFootprintWords) * 8.0;
        const double stream_cpb =
            double(run1.streamCycles) / footprint_bytes;
        const double random_cpb =
            double(run1.randomCycles) / footprint_bytes;

        const bool locality_ok = stream_hit_rate > random_hit_rate &&
                                 stream_cpb < random_cpb;
        gate_failures += !locality_ok;
        gate_failures += invariant_violations != 0;
        bitwise_failures += determinism_mismatches;

        const arch::DramModel probe(acfg);
        std::printf(
            "BENCH_JSON {\"bench\":\"bench_eval\",\"engine\":"
            "\"dram_model\",\"nodes\":%u,\"edges\":%zu,\"reps\":%d,"
            "\"channels\":%u,\"banks\":%u,\"stream_hit_rate\":%.4f,"
            "\"random_hit_rate\":%.4f,\"stream_cpb\":%.5f,"
            "\"random_cpb\":%.5f,\"stream_cycles\":%llu,"
            "\"random_cycles\":%llu,\"stream_blp_x100\":%llu,"
            "\"peak_bytes_per_cycle\":%.1f,\"model_ms\":%.3f,"
            "\"invariant_violations\":%zu,"
            "\"determinism_mismatches\":%zu%s}\n",
            acfg.dramTotalBanks(),
            size_t(run1.streamBursts + run1.randomBursts),
            kCorpusRequests, acfg.dramChannels,
            acfg.dramRanksPerChannel * acfg.dramBanksPerRank,
            stream_hit_rate, random_hit_rate, stream_cpb, random_cpb,
            (unsigned long long)run1.streamCycles,
            (unsigned long long)run1.randomCycles,
            (unsigned long long)run1.blpX100,
            probe.peakBytesPerCycle(), dram_ms, invariant_violations,
            determinism_mismatches, provenance);
        std::printf(
            "dram_model: stream hit %.1f%% / %.4f cyc/B vs random hit "
            "%.1f%% / %.4f cyc/B: %s; %zu invariant violations, %zu "
            "determinism mismatches over %d corpus requests\n",
            stream_hit_rate * 100.0, stream_cpb,
            random_hit_rate * 100.0, random_cpb,
            locality_ok ? "PASS" : "FAIL", invariant_violations,
            determinism_mismatches, kCorpusRequests);
    }

    // --- fault_recovery: end-to-end serving under injected faults ------
    //
    // Drives the real socket front-end (sys::SocketServer) with the
    // resilient client (sys::Client) twice over a small circuit: a
    // fault-free control pass, then a pass under a deterministic
    // sys::FaultPlan (resets, torn frames, short reads, partial
    // writes, dispatcher stalls).  Reliability contract, gated by
    // exit code: zero hangs (watchdog), every query answered, every
    // answer bitwise-identical to an in-process one-at-a-time run,
    // exact queue accounting, clean graceful drain — and the control
    // pass must need zero retries and shed/expire nothing, so the
    // reliability layer is provably free when nothing fails.
#if REASON_HAS_SOCKETS
    {
        Rng frng(4242);
        pc::Circuit fcircuit = pc::randomCircuit(frng, 16, 2, 4, 8);
        constexpr size_t kFaultQueries = 400;
        constexpr size_t kFaultClients = 2;
        const std::vector<pc::Assignment> fqueries =
            pc::sampleDataset(frng, fcircuit, kFaultQueries);

        // Ground truth: in-process, one at a time.
        std::vector<double> fref(kFaultQueries);
        {
            sys::ReasonEngine ref_engine;
            sys::Session s = ref_engine.createSession(fcircuit);
            for (size_t i = 0; i < kFaultQueries; ++i)
                fref[i] = s.wait(s.submit(fqueries[i]))->outputs[0];
        }

        // "Never hangs" is part of the contract: if either pass
        // wedges, fail the bench by exit code instead of letting CI
        // time out.
        std::atomic<bool> fr_done{false};
        std::thread watchdog([&fr_done] {
            for (int i = 0; i < 900 && !fr_done.load(); ++i)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(100));
            if (!fr_done.load()) {
                std::fprintf(stderr,
                             "fault_recovery: watchdog timeout — "
                             "serving stack hung\n");
                std::_Exit(3);
            }
        });

        struct FaultPass
        {
            size_t answered = 0;
            size_t wrong = 0;
            size_t unanswered = 0;
            uint64_t shed = 0;
            uint64_t expired = 0;
            uint64_t cancelled = 0;
            bool accountingOk = false;
            bool drainClean = false;
            double ms = 0.0;
            sys::ClientStats client;
            sys::ServerStats server;
        };
        const auto runPass = [&](unsigned retries) {
            FaultPass pass;
            sys::ServeOptions sopts;
            sopts.maxBatch = 16;
            sopts.serveThreads = 1;
            sopts.dispatchers = 2;
            sys::ReasonEngine engine(sopts);
            sys::SocketServer server(engine,
                                     pc::cachedLowering(fcircuit),
                                     sys::ServerOptions{});
            std::string err;
            if (!server.start(&err)) {
                std::fprintf(stderr, "fault_recovery: %s\n",
                             err.c_str());
                pass.unanswered = kFaultQueries;
                return pass; // all-unanswered fails the gates below
            }
            std::vector<std::vector<sys::QueryOutcome>> outs(
                kFaultClients);
            std::vector<sys::ClientStats> cstats(kFaultClients);
            const auto pt0 = Clock::now();
            std::vector<std::thread> cthreads;
            for (size_t c = 0; c < kFaultClients; ++c)
                cthreads.emplace_back([&, c] {
                    sys::ClientOptions copt;
                    copt.port = server.port();
                    copt.clientId = 1000 + c;
                    copt.pipeline = 16;
                    copt.maxRetries = retries;
                    copt.backoffBaseMs = 1;
                    copt.backoffCapMs = 50;
                    copt.seed = 97 + c;
                    sys::Client client(copt);
                    std::vector<pc::Assignment> mine;
                    for (size_t q = c; q < kFaultQueries;
                         q += kFaultClients)
                        mine.push_back(fqueries[q]);
                    client.runBatch(mine, &outs[c]);
                    cstats[c] = client.stats();
                });
            for (std::thread &t : cthreads)
                t.join();
            pass.ms = msSince(pt0);
            pass.drainClean = server.stop();
            pass.server = server.stats();
            for (size_t c = 0; c < kFaultClients; ++c) {
                pass.client.connects += cstats[c].connects;
                pass.client.connectFailures +=
                    cstats[c].connectFailures;
                pass.client.retriesSent += cstats[c].retriesSent;
                pass.client.transportErrors +=
                    cstats[c].transportErrors;
                for (size_t i = 0; i < outs[c].size(); ++i) {
                    const sys::QueryOutcome &o = outs[c][i];
                    const size_t q = c + i * kFaultClients;
                    if (o.error != sys::REASON_OK) {
                        ++pass.unanswered;
                        continue;
                    }
                    ++pass.answered;
                    pass.wrong += bitsDiffer(o.value, fref[q]);
                }
            }
            // Exact accounting: every accepted request reaches
            // exactly one terminal state.
            const sys::EngineStats es = engine.stats();
            pass.shed = es.shedRequests;
            pass.expired = es.expired;
            pass.cancelled = es.cancelled;
            pass.accountingOk =
                es.completed == es.requests &&
                es.completed == es.executed + es.shedRequests +
                                    es.expired + es.cancelled;
            return pass;
        };

        const FaultPass control = runPass(4);

        sys::FaultPlan plan;
        std::string plan_err;
        const bool plan_ok = sys::FaultPlan::parse(
            "seed=11,reset=0.01,torn=0.01,short=0.1,partial=0.1,"
            "stall=0.002,stall_us=1000",
            &plan, &plan_err);
        if (plan_ok)
            sys::installFaultPlan(&plan);
        const FaultPass faulted = runPass(100);
        sys::installFaultPlan(nullptr);
        const uint64_t faults_injected = plan.stats().total();

        fr_done.store(true);
        watchdog.join();

        // Control pass: byte-perfect and retry-free — the resilience
        // machinery must be invisible when nothing fails.
        const bool control_ok =
            control.answered == kFaultQueries &&
            control.wrong == 0 && control.unanswered == 0 &&
            control.client.retriesSent == 0 &&
            control.client.transportErrors == 0 &&
            control.shed == 0 && control.expired == 0 &&
            control.cancelled == 0 && control.accountingOk &&
            control.drainClean;
        // Fault pass: faults actually fired, yet every query still
        // terminated with the bit-exact answer and books balance.
        const bool fault_ok =
            plan_ok && faults_injected > 0 &&
            faulted.answered == kFaultQueries &&
            faulted.unanswered == 0 && faulted.accountingOk &&
            faulted.drainClean;
        gate_failures += !control_ok;
        gate_failures += !fault_ok;
        bitwise_failures += control.wrong + faulted.wrong;

        std::printf(
            "BENCH_JSON {\"bench\":\"bench_eval\",\"engine\":"
            "\"fault_recovery\",\"nodes\":%zu,\"edges\":%zu,"
            "\"reps\":%zu,\"clients\":%zu,\"control_ms\":%.3f,"
            "\"fault_ms\":%.3f,\"control_retries\":%llu,"
            "\"reconnects\":%llu,\"retries\":%llu,"
            "\"transport_errors\":%llu,\"duplicates_suppressed\":%llu,"
            "\"faults_injected\":%llu,\"unanswered\":%zu,"
            "\"wrong_answers\":%zu,\"control_mismatches\":%zu,"
            "\"shed\":%llu,\"expired\":%llu,\"cancelled\":%llu,"
            "\"accounting_ok\":%d,\"drain_clean\":%d%s}\n",
            fcircuit.numNodes(), fcircuit.numEdges(), kFaultQueries,
            kFaultClients, control.ms, faulted.ms,
            (unsigned long long)control.client.retriesSent,
            (unsigned long long)faulted.client.connects,
            (unsigned long long)faulted.client.retriesSent,
            (unsigned long long)faulted.client.transportErrors,
            (unsigned long long)faulted.server.duplicatesSuppressed,
            (unsigned long long)faults_injected, faulted.unanswered,
            faulted.wrong, control.wrong,
            (unsigned long long)faulted.shed,
            (unsigned long long)faulted.expired,
            (unsigned long long)faulted.cancelled,
            int(control_ok && faulted.accountingOk),
            int(control.drainClean && faulted.drainClean),
            provenance);
        std::printf(
            "fault_recovery: control %.3f ms %s; %llu faults -> "
            "%zu/%zu answered in %.3f ms over %llu connects "
            "(%llu retries, %llu duplicates suppressed), %zu wrong, "
            "drain %s: %s\n",
            control.ms, control_ok ? "PASS" : "FAIL",
            (unsigned long long)faults_injected, faulted.answered,
            kFaultQueries, faulted.ms,
            (unsigned long long)faulted.client.connects,
            (unsigned long long)faulted.client.retriesSent,
            (unsigned long long)faulted.server.duplicatesSuppressed,
            faulted.wrong, faulted.drainClean ? "clean" : "dirty",
            fault_ok && faulted.wrong == 0 ? "PASS" : "FAIL");
    }
#endif // REASON_HAS_SOCKETS

    (void)sink;
    (void)seed_acc;
    (void)flat_acc;
    if (bitwise_failures != 0) {
        std::fprintf(stderr,
                     "bench_eval: %zu bitwise mismatches across "
                     "variants that must match exactly\n",
                     bitwise_failures);
        return 1;
    }
    if (gate_failures != 0) {
        std::fprintf(stderr,
                     "bench_eval: %zu failed gates (serving_mt shed "
                     "rate / queue depth / admitted p99, approx_tier "
                     "bound violations / speedup-at-accuracy, "
                     "compile_flat WMC agreement / throughput)\n",
                     gate_failures);
        return 1;
    }
    return 0;
}
