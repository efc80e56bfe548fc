/**
 * @file
 * Hidden Markov Model substrate (REASON Sec. II-C, Eq. 2): scaled
 * forward/backward inference, posterior smoothing, Viterbi decoding,
 * Baum-Welch training, sampling, and posterior-based transition/emission
 * pruning (Sec. IV-B).
 */

#ifndef REASON_HMM_HMM_H
#define REASON_HMM_HMM_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/parallel.h"

namespace reason {

class Rng;

namespace hmm {

/** Observation sequence: symbol indices in [0, numSymbols). */
using Sequence = std::vector<uint32_t>;

/**
 * Discrete-emission HMM with `numStates` hidden states and `numSymbols`
 * observation symbols.  Probabilities are stored densely; pruned entries
 * are exact zeros.
 */
class Hmm
{
  public:
    Hmm(uint32_t num_states, uint32_t num_symbols);

    uint32_t numStates() const { return numStates_; }
    uint32_t numSymbols() const { return numSymbols_; }

    double initial(uint32_t s) const { return initial_[s]; }
    double transition(uint32_t from, uint32_t to) const
    {
        return trans_[size_t(from) * numStates_ + to];
    }
    double emission(uint32_t state, uint32_t sym) const
    {
        return emit_[size_t(state) * numSymbols_ + sym];
    }

    /** Contiguous initial distribution (numStates entries). */
    const double *initialData() const { return initial_.data(); }
    /** Contiguous transition row `from -> *` (numStates entries). */
    const double *transitionRow(uint32_t from) const
    {
        return trans_.data() + size_t(from) * numStates_;
    }
    /** Contiguous emission row of `state` (numSymbols entries). */
    const double *emissionRow(uint32_t state) const
    {
        return emit_.data() + size_t(state) * numSymbols_;
    }

    void setInitial(std::vector<double> pi);
    void setTransitionRow(uint32_t from, std::vector<double> row);
    void setEmissionRow(uint32_t state, std::vector<double> row);

    /** Count of structurally nonzero transition entries. */
    size_t numActiveTransitions() const;
    /** Count of structurally nonzero emission entries. */
    size_t numActiveEmissions() const;

    /** Renormalize all rows; fatal if a row has no mass. */
    void normalize();

    /** Uniformly random fully-connected model. */
    static Hmm random(Rng &rng, uint32_t num_states, uint32_t num_symbols,
                      double concentration = 1.0);

    /**
     * Banded model: state s transitions only to [s-band, s+band] mod N.
     * Mirrors the sparse transition structure of constrained-decoding
     * HMMs (Ctrl-G / GeLaTo).  `concentration` < 1 yields peaked rows
     * (most probability mass on few successors/symbols), the regime in
     * which posterior-usage pruning is both effective and harmless.
     */
    static Hmm banded(Rng &rng, uint32_t num_states, uint32_t num_symbols,
                      uint32_t band, double concentration = 1.0);

    /** Sample a state/observation path of the given length. */
    void sample(Rng &rng, size_t length, Sequence *obs,
                std::vector<uint32_t> *states = nullptr) const;

  private:
    uint32_t numStates_;
    uint32_t numSymbols_;
    std::vector<double> initial_;
    std::vector<double> trans_;
    std::vector<double> emit_;
};

/** Scaled forward/backward quantities for one sequence. */
struct ForwardBackward
{
    /** alpha[t][s], scaled so each row sums to 1. */
    std::vector<std::vector<double>> alpha;
    /** beta[t][s] under the same scaling. */
    std::vector<std::vector<double>> beta;
    /** Per-step scaling factors c_t. */
    std::vector<double> scale;
    /** gamma[t][s] = P(z_t = s | x_{1:T}). */
    std::vector<std::vector<double>> gamma;
    /** xi[t][i*N+j] = P(z_t=i, z_{t+1}=j | x); length T-1. */
    std::vector<std::vector<double>> xi;
    /** log P(x_{1:T}). */
    double logLikelihood = 0.0;
};

/** Run scaled forward-backward on one observation sequence. */
ForwardBackward forwardBackward(const Hmm &hmm, const Sequence &obs);

/**
 * Flat forward-backward workspace: the same quantities as
 * ForwardBackward, stored in contiguous row-major buffers
 * (alpha/beta/gamma are T x N, xi is (T-1) x N*N) that are reused across
 * sequences.  Training and pruning loops run forward-backward once per
 * sequence per iteration; the nested-vector layout of ForwardBackward
 * costs O(T) allocations per call, this costs zero once warm.
 */
struct FbWorkspace
{
    std::vector<double> alpha; ///< [t * N + s], rows scaled to sum 1
    std::vector<double> beta;  ///< [t * N + s]
    std::vector<double> gamma; ///< [t * N + s]
    std::vector<double> xi;    ///< [t * N * N + i * N + j], length T-1
    std::vector<double> scale; ///< [t]
    /**
     * SIMD leaf-batching tables, rebuilt per call from the model:
     * emitT[sym * N + s] = emission(s, sym) — one contiguous
     * "emission column" per observed symbol, so per-step leaf scoring
     * is SIMD-width loads instead of stride-numSymbols gathers — and
     * transT[j * N + i] = transition(i, j) for the backward matvec.
     */
    std::vector<double> emitT;
    std::vector<double> transT;
    double logLikelihood = 0.0;
    size_t T = 0;
    uint32_t N = 0;
};

/**
 * Scaled forward-backward into a reused workspace; allocation-free once
 * the buffers have grown to the largest (T, N) seen.  Identical math to
 * forwardBackward().
 *
 * `reuse_tables` skips rebuilding the workspace's emitT/transT
 * transpose tables (O(N*(N+M)) per call): pass true ONLY when the
 * previous call on this workspace used the same model with unchanged
 * parameters — the pattern of a fixed-model sweep over many sequences
 * (Baum-Welch E-step within one iteration, posterior pruning).
 */
void forwardBackwardInto(const Hmm &hmm, const Sequence &obs,
                         FbWorkspace &ws, bool reuse_tables = false);

/** log P(x) only (forward pass). */
double sequenceLogLikelihood(const Hmm &hmm, const Sequence &obs);

/**
 * log P(x) for every sequence of a dataset, written into `out`
 * (out.size() >= data.size()).  Sequences are independent forward
 * passes, so they are split across the worker pool (nullptr selects the
 * global pool) in deterministic contiguous chunks; each out[i] is
 * computed by exactly one worker with the per-sequence serial code, so
 * results are bit-identical for any thread count.  Used by baumWelch's
 * per-iteration dataset likelihood.
 */
void sequenceLogLikelihoods(const Hmm &hmm,
                            const std::vector<Sequence> &data,
                            std::vector<double> &out,
                            util::ThreadPool *pool = nullptr);

/** Viterbi decoding result. */
struct ViterbiResult
{
    std::vector<uint32_t> path;
    double logProb = 0.0;
};

/** Most likely hidden state path. */
ViterbiResult viterbi(const Hmm &hmm, const Sequence &obs);

/**
 * Brute-force log P(x) by path enumeration (testing only):
 * requires numStates^T small.
 */
double bruteForceLogLikelihood(const Hmm &hmm, const Sequence &obs);

/** Baum-Welch training trace. */
struct BaumWelchTrace
{
    std::vector<double> logLikelihood;
    uint32_t iterations = 0;
};

/** Baum-Welch options. */
struct BaumWelchOptions
{
    uint32_t maxIterations = 20;
    /** Stop when LL improves by less than this per sequence. */
    double tolerance = 1e-6;
    /** Pseudo-count added to every expected count. */
    double smoothing = 1e-3;
};

/**
 * Baum-Welch EM over a set of sequences; trains in place.  Sequences
 * are sharded into contiguous slices accumulated by pool workers
 * (nullptr selects the global pool) into private statistic buffers,
 * merged by a deterministic tree reduction; per-iteration dataset
 * likelihoods reuse the thread-parallel sequenceLogLikelihoods.  The
 * shard count is util::resolveShardCount's auto rule, a function of
 * the sequence count alone, so the trained model and trace are
 * bit-identical for any thread count.
 */
BaumWelchTrace baumWelch(Hmm &hmm, const std::vector<Sequence> &data,
                         const BaumWelchOptions &options,
                         util::ThreadPool *pool = nullptr);

/** Result of posterior-usage-based pruning. */
struct HmmPruneResult
{
    Hmm pruned;
    uint64_t transitionsRemoved = 0;
    uint64_t emissionsRemoved = 0;
    /** Fraction of (transition+emission) parameters removed. */
    double parameterReduction = 0.0;

    HmmPruneResult() : pruned(1, 1) {}
};

/**
 * Prune transitions and emissions whose expected posterior usage over the
 * dataset (forward-backward xi/gamma mass) falls below `usage_threshold`
 * times the *average* usage of an active entry of the same type.  Each
 * state keeps at least one outgoing transition and one emission; rows are
 * renormalized.
 */
HmmPruneResult pruneByPosterior(const Hmm &hmm,
                                const std::vector<Sequence> &data,
                                double usage_threshold);

} // namespace hmm
} // namespace reason

#endif // REASON_HMM_HMM_H
