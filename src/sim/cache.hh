/**
 * @file
 * Set-associative cache with pluggable replacement and write-back
 * write-allocate semantics.
 *
 * The cache stores tags only — no data — since workloads are address
 * streams. Each line carries a fill timestamp so that demand hits on
 * lines still in flight (installed by a prefetch that has not yet
 * returned from memory) can charge the remaining latency.
 *
 * Way state is split in two. A per-set directory of 64-byte lines,
 * one line per group of 16 ways, holds three byte lanes per way: an
 * 8-bit tag fingerprint, the replacement state (the way's exact LRU
 * rank, 0 = most recent, or its SRRIP RRPV) and a valid/dirty/
 * prefetched byte. A separate slot array of `{tag, fillTime}` pairs is
 * read only to confirm a fingerprint match, to return a hit's fill
 * time, or to evict and install a line. A probe compares 16
 * fingerprints per SSE2 compare (cache_lanes.hh); the LRU victim is
 * the way whose rank is ways-1; a touch ages every younger way with
 * one vector compare-and-subtract. Ranks start at ways-1-i, which is the
 * order the earlier timestamp design produced (untouched prefill
 * dummies leave lowest index first), so victims and statistics are
 * identical to a per-way `lastUse` stamp scan.
 */

#ifndef MEMSENSE_SIM_CACHE_HH
#define MEMSENSE_SIM_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "sim/config.hh"
#include "sim/microop.hh"
#include "util/arena.hh"
#include "util/rng.hh"
#include "util/units.hh"

namespace memsense::sim
{

/** Hit/miss and traffic counters of one cache. */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t fills = 0;
    std::uint64_t evictions = 0;
    std::uint64_t dirtyEvictions = 0;

    /** Accesses observed. */
    std::uint64_t accesses() const { return hits + misses; }

    /** Miss ratio in [0, 1]; 0 when never accessed. */
    double missRatio() const
    {
        return accesses() ? static_cast<double>(misses) /
                                static_cast<double>(accesses())
                          : 0.0;
    }
};

/** An evicted line (returned from insert()). */
struct Victim
{
    bool valid = false;    ///< an eviction actually happened
    bool dirty = false;    ///< the victim needs writing back
    Addr lineAddr = 0;     ///< victim's line address
};

/** Result of a cache lookup. */
struct LookupResult
{
    bool hit = false;      ///< line present (possibly still in flight)
    Picos fillTime = 0;    ///< when the line's data is/was available
    bool firstPrefetchTouch = false; ///< first demand touch of a line
                                     ///< a prefetch installed (used to
                                     ///< keep streamers training)
};

/**
 * A tag-only set-associative cache.
 *
 * Addresses are line addresses (byte address >> kLineShift). The cache
 * is indexed by line address modulo the set count, which supports
 * non-power-of-two set counts (needed when the shared LLC is scaled by
 * a non-power-of-two core count).
 */
class SetAssocCache
{
  public:
    /**
     * @param name      human-readable name for diagnostics
     * @param cfg       geometry and replacement policy
     * @param seed      RNG seed for the Random replacement policy
     * @param arena     optional bump allocator backing the way arrays
     *                  (must outlive the cache); heap when null
     * @param prefilled start with every way holding a distinct clean
     *                  dummy line from a reserved address region, so
     *                  capacity evictions (and therefore dirty
     *                  writebacks of real lines) begin immediately
     *                  instead of after a long cold-start window;
     *                  each byte of the state is written once
     */
    SetAssocCache(std::string name, const CacheConfig &cfg,
                  std::uint64_t seed = 1,
                  util::Arena *arena = nullptr, bool prefilled = false);

    /**
     * Probe for @p line_addr; updates replacement state and statistics.
     *
     * @param line_addr line address to look up
     * @param is_write  true marks the line dirty on a hit
     * @param now       current time (unused except for bookkeeping)
     */
    LookupResult lookup(Addr line_addr, bool is_write, Picos now);

    /**
     * Probe without updating replacement state or statistics.
     */
    bool contains(Addr line_addr) const;

    /**
     * contains() for a line about to be fetched from outside the
     * demand path (the prefetcher): an absent line also primes
     * fillAfterMiss() exactly as a lookup() miss does, so
     * probe-then-install costs one set scan instead of two.
     */
    bool probe(Addr line_addr);

    /**
     * Install @p line_addr, evicting a victim if the set is full.
     *
     * @param line_addr line to install
     * @param dirty     install in dirty state (write allocate)
     * @param fill_time when the line's data arrives (>= now for lines
     *                  installed by in-flight fetches)
     * @param prefetched true when a prefetch (not a demand access)
     *                  installed the line
     */
    Victim insert(Addr line_addr, bool dirty, Picos fill_time,
                  bool prefetched = false);

    /**
     * Install the line whose lookup() just missed, reusing the miss
     * scan: the lookup recorded the set and its first empty way, so
     * the fill needs no second scan (demand fills are half the set
     * scans in the simulator's hottest loop).
     *
     * Contract: callable only when the immediately preceding
     * operation on THIS cache was a lookup() miss (or a false
     * probe()) for @p line_addr —
     * which is how the core's access path behaves: each level's
     * demand fill follows its miss with no intervening operation on
     * that level. Enforced with a checked invariant. Semantically
     * identical to insert(@p line_addr, ...) under that contract.
     */
    Victim fillAfterMiss(Addr line_addr, bool dirty, Picos fill_time,
                         bool prefetched = false);

    /** Invalidate a line if present; returns whether it was dirty. */
    bool invalidate(Addr line_addr);

    /**
     * Mark a line dirty if present (writeback from an inner level),
     * without touching replacement state or hit/miss statistics.
     *
     * @return true when the line was present
     */
    bool markDirtyIfPresent(Addr line_addr);

    /**
     * Accept a dirty writeback from an inner level: equivalent to
     * `markDirtyIfPresent(a) || insert(a, true, now)` but in one set
     * scan instead of two — the writeback cascade runs this against
     * the outer (largest, coldest) caches, where each scan is a
     * near-guaranteed host-cache miss on the set block.
     *
     * When the line was present, only its dirty bit is set (recency
     * untouched, no statistics) and the returned victim is invalid;
     * otherwise the line is installed dirty exactly as insert() would
     * install it, including any eviction.
     */
    Victim writebackInsert(Addr line_addr, Picos now);

    /** Statistics accessor. */
    const CacheStats &stats() const { return _stats; }

    /** Reset statistics (not contents). */
    void clearStats() { _stats = CacheStats{}; }

    /** Configuration in use. */
    const CacheConfig &config() const { return cfg; }

    /** Name for diagnostics. */
    const std::string &name() const { return _name; }

    /** Number of currently valid lines (linear scan; tests only). */
    std::uint64_t validLineCount() const;

  private:
    /** Where a way's tag and fill time live (read on match/evict). */
    struct Slot
    {
        Addr tag;
        Picos fillTime;
    };

    /** @{ Byte offsets of the lane arrays inside a directory line. */
    static constexpr std::size_t kFpOff = 0;
    static constexpr std::size_t kReplOff = 16;
    static constexpr std::size_t kMetaOff = 32;
    /** @} */

    /** Bits of the per-way metadata byte; 0 means an empty way. */
    static constexpr std::uint8_t kValid = 1u << 0;
    static constexpr std::uint8_t kDirty = 1u << 1;
    static constexpr std::uint8_t kPrefetched = 1u << 2;

    /** Replacement byte of padding lanes: never aged, never matched. */
    static constexpr std::uint8_t kPadRank = 0x7f;

    /** Set index for a line address.
     *
     * Every lookup/insert/invalidate runs through here, and every
     * sweep worker hammers it, so the common power-of-two geometry
     * uses a precomputed mask instead of the integer divide; the
     * modulo fallback keeps non-power-of-two set counts working (the
     * shared LLC scaled by e.g. 3 cores). Both forms produce the same
     * index for power-of-two counts, so results are unchanged.
     */
    std::uint64_t setIndex(Addr line_addr) const
    {
        return setMask ? (line_addr & setMask) : (line_addr % numSets);
    }

    /** The 8-bit tag fingerprint a probe compares. */
    static std::uint8_t fingerprint(Addr line_addr)
    {
        return static_cast<std::uint8_t>(
            (line_addr * 0x9E3779B97F4A7C15ull) >> 56);
    }

    /** @{ One set's directory lines and slot array. */
    std::uint8_t *dirOf(std::uint64_t s) const
    {
        return dir + static_cast<std::size_t>(s) * dirStride;
    }
    Slot *slotsOf(std::uint64_t s) const
    {
        return slots + static_cast<std::size_t>(s) * cfg.ways;
    }
    /** @} */

    /** Mask of the empty ways of @p d. */
    std::uint64_t emptyWays(const std::uint8_t *d) const;

    /**
     * Way holding @p line_addr in set (@p d, @p sl), or ways when
     * absent; @p empty receives the set's empty-way mask.
     */
    std::uint32_t find(const std::uint8_t *d, const Slot *sl,
                       Addr line_addr, std::uint64_t &empty) const;

    /** Record a miss scan for the next fillAfterMiss(). */
    void setFillHint(std::uint8_t *d, Slot *sl, Addr line_addr,
                     std::uint64_t empty);

    /** Make way @p w the most recently used (LRU rank 0). */
    void touch(std::uint8_t *d, std::uint32_t w);

    /** Choose a victim way within the full set @p d. */
    std::uint32_t pickVictim(std::uint8_t *d);

    /**
     * Install @p line_addr into way @p w of set (@p d, @p sl), first
     * evicting its line when @p w == ways (the set is full: the
     * replacement policy picks the way).
     */
    Victim installAt(std::uint8_t *d, Slot *sl, std::uint32_t w,
                     Addr line_addr, bool dirty, bool prefetched,
                     Picos fill_time);

    /** Write set @p s's initial state (empty, or all dummies). */
    void initSet(std::uint64_t s, bool prefilled);

    /** The prefill dummy line of way @p w of set @p s. */
    Addr dummyLine(std::uint64_t s, std::uint32_t w) const;

    std::string _name;
    CacheConfig cfg;
    std::uint64_t numSets = 0;
    /** numSets - 1 when numSets is a power of two, else 0 (use %). */
    std::uint64_t setMask = 0;
    std::uint32_t groups = 0;   ///< directory lines per set
    std::uint64_t waysMask = 0; ///< one bit per real (unpadded) way

    // Directory lines of every set, then every set's slot array, in
    // one cache-line-aligned slab.
    util::AlignedSlab slab;
    std::size_t dirStride = 0; ///< groups * 64
    std::uint8_t *dir = nullptr;
    Slot *slots = nullptr;

    Rng rng;
    CacheStats _stats;

    // Fill hint recorded by a lookup() miss (or false probe()) and
    // consumed by the next fillAfterMiss(): the set just scanned and
    // its first empty way (== ways when the set is full). Valid
    // because the core never interleaves another operation on the
    // same cache between a miss and its fill (see fillAfterMiss()).
    std::uint8_t *fillHintDir = nullptr;
    Slot *fillHintSlots = nullptr;
    Addr fillHintLine = 0;
    std::uint32_t fillHintWay = 0;
};

} // namespace memsense::sim

#endif // MEMSENSE_SIM_CACHE_HH
