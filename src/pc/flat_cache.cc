#include "pc/flat_cache.h"

#include <bit>
#include <mutex>
#include <unordered_map>

namespace reason {
namespace pc {

namespace {

/**
 * Word-wise 64-bit running hash: one xor, one multiply by the FNV
 * prime, and one xor-shift per 64-bit word (FNV-1a mixes byte by byte,
 * eight rounds per word).  Each step is a bijection of the state for a
 * fixed word and of the word for a fixed state, so two streams that
 * differ in exactly one word always hash differently.
 */
struct WordHash
{
    uint64_t h = 1469598103934665603ull;

    void
    mix(uint64_t v)
    {
        h = (h ^ v) * 0x100000001b3ull;
        h ^= h >> 29;
    }
    void mix(uint32_t v) { mix(uint64_t(v)); }
    void mix(double v) { mix(std::bit_cast<uint64_t>(v)); }
};

/** Content fingerprint: exact counts plus a topology/parameter hash. */
struct Identity
{
    uint64_t nodes = 0;
    uint64_t edges = 0;
    uint64_t meta = 0; // vars/arity
    uint64_t hash = 0;

    bool
    operator==(const Identity &o) const
    {
        return nodes == o.nodes && edges == o.edges && meta == o.meta &&
               hash == o.hash;
    }
};

Identity
fingerprint(const Circuit &c)
{
    Identity id;
    id.nodes = c.numNodes();
    id.edges = c.numEdges();
    id.meta = (uint64_t(c.numVars()) << 32) | c.arity();
    WordHash f;
    f.mix(uint64_t(c.root()));
    for (size_t i = 0; i < c.numNodes(); ++i) {
        const PcNode &n = c.node(NodeId(i));
        f.mix(uint64_t(n.type));
        switch (n.type) {
          case PcNodeType::Leaf:
            f.mix(n.var);
            for (double d : n.dist)
                f.mix(d);
            break;
          case PcNodeType::Sum:
            for (size_t k = 0; k < n.children.size(); ++k) {
                f.mix(n.children[k]);
                f.mix(n.weights[k]);
            }
            break;
          case PcNodeType::Product:
            for (NodeId child : n.children)
                f.mix(child);
            break;
        }
    }
    id.hash = f.h;
    return id;
}

/**
 * Pointer-bucketed LRU cache.  The pointer is only a bucket key —
 * correctness rests on the Identity comparison, so address reuse after
 * an object dies simply misses (different fingerprint) or legitimately
 * shares (byte-equal structure lowers to the same flat form).
 */
class LoweringCache
{
  public:
    static constexpr size_t kMaxEntries = kFlatCacheCapacity;

    /**
     * Serve `src`'s lowering.  The fingerprint pass and (on a miss)
     * the lowering itself run *outside* the lock, so concurrent
     * queries only serialize on the map lookup/insert; two threads
     * racing to lower the same structure both lower, and the later
     * insert wins (both results are equivalent by construction).
     */
    std::shared_ptr<const FlatCircuit>
    get(const Circuit &src)
    {
        const Identity id = fingerprint(src);
        const uintptr_t key = reinterpret_cast<uintptr_t>(&src);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            auto it = entries_.find(key);
            if (it != entries_.end() && it->second.id == id) {
                ++stats_.hits;
                it->second.tick = ++clock_;
                return it->second.flat;
            }
        }
        auto flat = std::make_shared<const FlatCircuit>(src);
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.misses;
        auto it = entries_.find(key);
        if (it != entries_.end()) {
            it->second = {id, flat, ++clock_};
            return flat;
        }
        if (entries_.size() >= kMaxEntries) {
            auto oldest = entries_.begin();
            for (auto e = entries_.begin(); e != entries_.end(); ++e)
                if (e->second.tick < oldest->second.tick)
                    oldest = e;
            entries_.erase(oldest);
            ++stats_.evictions;
        }
        entries_.emplace(key, Entry{id, flat, ++clock_});
        return flat;
    }

    FlatCacheStats
    stats()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return stats_;
    }

    void
    clear()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        entries_.clear();
        stats_ = FlatCacheStats{};
        clock_ = 0;
    }

  private:
    struct Entry
    {
        Identity id;
        std::shared_ptr<const FlatCircuit> flat;
        uint64_t tick = 0;
    };
    std::mutex mutex_;
    FlatCacheStats stats_;
    std::unordered_map<uintptr_t, Entry> entries_;
    uint64_t clock_ = 0;
};

LoweringCache g_circuits;

} // namespace

std::shared_ptr<const FlatCircuit>
cachedLowering(const Circuit &circuit)
{
    return g_circuits.get(circuit);
}

uint64_t
structuralFingerprint(const FlatCircuit &flat)
{
    // Only the canonical arrays participate: the schedules and the
    // parent transpose are derived from them (finalizeTopology), so
    // mixing them would add cost without discriminating power.
    WordHash f;
    f.mix(uint64_t(flat.numVars));
    f.mix(uint64_t(flat.arity));
    f.mix(uint64_t(flat.root));
    f.mix(uint64_t(flat.numNodes()));
    f.mix(uint64_t(flat.numEdges()));
    for (uint8_t t : flat.types)
        f.mix(uint64_t(t));
    for (uint32_t o : flat.edgeOffset)
        f.mix(o);
    for (size_t e = 0; e < flat.edgeTarget.size(); ++e) {
        f.mix(flat.edgeTarget[e]);
        f.mix(flat.edgeLogWeight[e]);
    }
    for (size_t s = 0; s < flat.leafVar.size(); ++s)
        f.mix(flat.leafVar[s]);
    for (double d : flat.leafLogDist)
        f.mix(d);
    return f.h;
}

FlatCacheStats
flatCacheStats()
{
    return g_circuits.stats();
}

void
clearFlatCache()
{
    g_circuits.clear();
}

} // namespace pc
} // namespace reason
