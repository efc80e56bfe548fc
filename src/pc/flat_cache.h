/**
 * @file
 * Lowering cache for the flat kernel engines.
 *
 * Every repeated-pass query lowers its Circuit into the flat
 * CSR form before evaluating; callers that issue many queries against
 * the same structure — posteriorMarginals per evidence set, EM's
 * meanLogLikelihood after each M-step, entropy sweeps, the CLI — used
 * to pay that O(nodes + edges + log() per weight) cost on every call.
 * The cache keys a lowering by *structural identity*: the object's
 * address plus a content fingerprint (node/edge counts and a 64-bit
 * word-wise hash over topology and parameters, one multiply and one
 * xor-shift per 64-bit word).  Address reuse and
 * in-place mutation (e.g. EM weight updates) change the fingerprint
 * and miss; hitting requires byte-equal structure, so a hit is always
 * safe to share.
 *
 * Entries are std::shared_ptr<const ...>: callers keep their lowering
 * alive independently of later evictions (small LRU, kMaxEntries).
 * All functions are thread-safe (internal mutex); the returned flat
 * structures are immutable and safe for concurrent reads.
 */

#ifndef REASON_PC_FLAT_CACHE_H
#define REASON_PC_FLAT_CACHE_H

#include <cstdint>
#include <memory>

#include "pc/flat_pc.h"

namespace reason {
namespace pc {

/** Entry capacity of the LRU lowering cache. */
inline constexpr size_t kFlatCacheCapacity = 16;

/**
 * Lowering of `circuit`, served from the cache when the circuit is
 * structurally unchanged since the previous call, freshly lowered (and
 * cached) otherwise.
 */
std::shared_ptr<const FlatCircuit> cachedLowering(const Circuit &circuit);

/**
 * 64-bit content fingerprint (the cache's word-wise hash) of an
 * already-flat circuit:
 * topology (types, CSR edges, root), parameters (edge log-weights,
 * leaf variables and log-distributions), and meta (vars/arity).
 * Structurally identical circuits hash equal regardless of how they
 * were built — Circuit lowering, direct d-DNNF build, or streamed
 * `.nnf` load — so compiled knowledge bases can be deduplicated and
 * cache keys derived without a heap source object.
 */
uint64_t structuralFingerprint(const FlatCircuit &flat);

/** Hit/miss/eviction counters since process start (or last clear). */
struct FlatCacheStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
};

FlatCacheStats flatCacheStats();

/** Drop every cached lowering and zero the counters (tests, reloads). */
void clearFlatCache();

} // namespace pc
} // namespace reason

#endif // REASON_PC_FLAT_CACHE_H
