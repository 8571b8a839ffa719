#include "sim/cache.hh"

#include <bit>

#include "sim/cache_lanes.hh"
#include "util/contract.hh"
#include "util/error.hh"

namespace memsense::sim
{

namespace
{

/** Lane byte of way @p w in the lane array at @p off of directory @p d. */
std::uint8_t &
lane(std::uint8_t *d, std::size_t off, std::uint32_t w)
{
    return d[(w / lanes::kGroupWays) * lanes::kGroupStride + off +
             w % lanes::kGroupWays];
}

/** Index of the lowest set bit of a non-zero @p mask. */
std::uint32_t
lowestWay(std::uint64_t mask)
{
    return static_cast<std::uint32_t>(std::countr_zero(mask));
}

} // anonymous namespace

SetAssocCache::SetAssocCache(std::string name_in, const CacheConfig &config,
                             std::uint64_t seed, util::Arena *arena,
                             bool prefilled)
    : _name(std::move(name_in)), cfg(config), rng(seed)
{
    // Validate before deriving the geometry: sets() divides by the
    // way count, so a zero-way config must be rejected first.
    cfg.validate();
    numSets = cfg.sets();
    if (numSets > 0 && (numSets & (numSets - 1)) == 0)
        setMask = numSets - 1;
    MS_ENSURE(numSets >= 1, _name, ": derived geometry has no sets");

    groups = (cfg.ways + lanes::kGroupWays - 1) / lanes::kGroupWays;
    waysMask = cfg.ways == 64 ? ~std::uint64_t{0}
                              : (std::uint64_t{1} << cfg.ways) - 1;
    dirStride = groups * lanes::kGroupStride;
    const std::size_t dir_bytes =
        static_cast<std::size_t>(numSets) * dirStride;
    const std::size_t slot_bytes =
        static_cast<std::size_t>(numSets) * cfg.ways * sizeof(Slot);
    // No pre-zeroing: initSet() writes every directory lane, and a
    // slot is read only once its way is valid, i.e. after an install
    // or a prefill wrote it. dir_bytes is a multiple of 64, so the
    // slot array starts cache-line aligned.
    slab.init(dir_bytes + slot_bytes, arena, /*zero=*/false);
    dir = slab.data();
    slots = reinterpret_cast<Slot *>(slab.data() + dir_bytes);
    for (std::uint64_t s = 0; s < numSets; ++s)
        initSet(s, prefilled);
}

Addr
SetAssocCache::dummyLine(std::uint64_t s, std::uint32_t w) const
{
    // Tags from the top of the address space cannot collide with
    // workload arenas (which sit near 2^44), and (w, s) pairs get
    // distinct lines. Line base + w*sets + s indexes to set s only
    // when the set count is a power of two; a dummy is never looked
    // up in practice, only evicted, so that does not matter.
    constexpr Addr kDummyBase = Addr{1} << 56;
    return kDummyBase + w * numSets + s;
}

void
SetAssocCache::initSet(std::uint64_t s, bool prefilled)
{
    std::uint8_t *d = dirOf(s);
    Slot *sl = slotsOf(s);
    const std::uint32_t n = cfg.ways;
    const bool lru = cfg.replacement == ReplacementKind::Lru;
    for (std::uint32_t w = 0; w < groups * lanes::kGroupWays; ++w) {
        if (w >= n) {
            lane(d, kFpOff, w) = 0;
            lane(d, kReplOff, w) = kPadRank;
            lane(d, kMetaOff, w) = 0;
            continue;
        }
        // Rank ways-1-w: among equally old ways the lowest index
        // leaves first, the order prefill dummies have always had.
        lane(d, kReplOff, w) = static_cast<std::uint8_t>(lru ? n - 1 - w : 3);
        if (prefilled) {
            const Addr a = dummyLine(s, w);
            sl[w] = {a, 0};
            lane(d, kFpOff, w) = fingerprint(a);
            lane(d, kMetaOff, w) = kValid;
        } else {
            lane(d, kFpOff, w) = 0;
            lane(d, kMetaOff, w) = 0;
        }
    }
}

std::uint64_t
SetAssocCache::emptyWays(const std::uint8_t *d) const
{
    return lanes::eqMask(d + kMetaOff, 0, groups) & waysMask;
}

std::uint32_t
SetAssocCache::find(const std::uint8_t *d, const Slot *sl, Addr line_addr,
                    std::uint64_t &empty) const
{
    empty = emptyWays(d);
    // A fingerprint match is confirmed against the full tag: about
    // one probe in 256 per valid way meets a colliding fingerprint.
    std::uint64_t cand =
        lanes::eqMask(d + kFpOff, fingerprint(line_addr), groups) &
        waysMask & ~empty;
    while (cand) {
        const std::uint32_t w = lowestWay(cand);
        if (sl[w].tag == line_addr)
            return w;
        cand &= cand - 1;
    }
    return cfg.ways;
}

void
SetAssocCache::setFillHint(std::uint8_t *d, Slot *sl, Addr line_addr,
                           std::uint64_t empty)
{
    fillHintDir = d;
    fillHintSlots = sl;
    fillHintLine = line_addr;
    fillHintWay = empty ? lowestWay(empty) : cfg.ways;
}

void
SetAssocCache::touch(std::uint8_t *d, std::uint32_t w)
{
    std::uint8_t &r = lane(d, kReplOff, w);
    const std::uint8_t rank = r;
    if (rank == 0)
        return;
    lanes::ageBelow(d + kReplOff, rank, groups);
    r = 0;
}

LookupResult
SetAssocCache::lookup(Addr line_addr, bool is_write, Picos now)
{
    (void)now;
    const std::uint64_t s = setIndex(line_addr);
    std::uint8_t *d = dirOf(s);
    Slot *sl = slotsOf(s);
    std::uint64_t empty = 0;
    const std::uint32_t w = find(d, sl, line_addr, empty);
    if (w == cfg.ways) {
        // Miss: remember this scan so fillAfterMiss() needs none.
        setFillHint(d, sl, line_addr, empty);
        ++_stats.misses;
        return {false, 0, false};
    }
    if (cfg.replacement == ReplacementKind::Lru)
        touch(d, w);
    else if (cfg.replacement == ReplacementKind::Srrip)
        lane(d, kReplOff, w) = 0;
    std::uint8_t &meta = lane(d, kMetaOff, w);
    const bool first_touch = (meta & kPrefetched) != 0;
    meta = static_cast<std::uint8_t>((meta | (is_write ? kDirty : 0)) &
                                     ~kPrefetched);
    ++_stats.hits;
    return {true, sl[w].fillTime, first_touch};
}

bool
SetAssocCache::contains(Addr line_addr) const
{
    const std::uint64_t s = setIndex(line_addr);
    std::uint64_t empty = 0;
    return find(dirOf(s), slotsOf(s), line_addr, empty) < cfg.ways;
}

bool
SetAssocCache::probe(Addr line_addr)
{
    const std::uint64_t s = setIndex(line_addr);
    std::uint8_t *d = dirOf(s);
    Slot *sl = slotsOf(s);
    std::uint64_t empty = 0;
    if (find(d, sl, line_addr, empty) < cfg.ways)
        return true;
    setFillHint(d, sl, line_addr, empty);
    return false;
}

std::uint32_t
SetAssocCache::pickVictim(std::uint8_t *d)
{
    const std::uint32_t n = cfg.ways;
    switch (cfg.replacement) {
      case ReplacementKind::Lru:
        // Ranks are a permutation of 0..ways-1: exactly one way is
        // the least recently used.
        return lowestWay(lanes::eqMask(d + kReplOff,
                                       static_cast<std::uint8_t>(n - 1),
                                       groups) &
                         waysMask);
      case ReplacementKind::Random:
        return static_cast<std::uint32_t>(rng.nextBounded(n));
      case ReplacementKind::Srrip:
        // Find an RRPV-3 line, aging the set until one appears.
        for (;;) {
            const std::uint64_t far =
                lanes::eqMask(d + kReplOff, 3, groups) & waysMask;
            if (far)
                return lowestWay(far);
            for (std::uint32_t w = 0; w < n; ++w)
                ++lane(d, kReplOff, w);
        }
    }
    throw LogicError("unknown replacement policy");
}

Victim
SetAssocCache::installAt(std::uint8_t *d, Slot *sl, std::uint32_t w,
                         Addr line_addr, bool dirty, bool prefetched,
                         Picos fill_time)
{
    Victim victim;
    if (w == cfg.ways) {
        w = pickVictim(d);
        MS_INVARIANT(w < cfg.ways,
                     _name, ": victim way ", w, " out of range");
        victim.valid = true;
        victim.dirty = (lane(d, kMetaOff, w) & kDirty) != 0;
        victim.lineAddr = sl[w].tag;
        ++_stats.evictions;
        if (victim.dirty)
            ++_stats.dirtyEvictions;
    }
    sl[w] = {line_addr, fill_time};
    lane(d, kFpOff, w) = fingerprint(line_addr);
    lane(d, kMetaOff, w) = static_cast<std::uint8_t>(
        kValid | (dirty ? kDirty : 0) | (prefetched ? kPrefetched : 0));
    if (cfg.replacement == ReplacementKind::Lru)
        touch(d, w);
    else if (cfg.replacement == ReplacementKind::Srrip)
        lane(d, kReplOff, w) = 2; // long re-reference insertion
    ++_stats.fills;
    return victim;
}

Victim
SetAssocCache::insert(Addr line_addr, bool dirty, Picos fill_time,
                      bool prefetched)
{
    const std::uint64_t s = setIndex(line_addr);
    std::uint8_t *d = dirOf(s);
    Slot *sl = slotsOf(s);
    std::uint64_t empty = 0;
    const std::uint32_t w = find(d, sl, line_addr, empty);
    if (w < cfg.ways) {
        // A racing fill of a present line refreshes its recency and
        // dirtiness; nothing is evicted.
        if (dirty)
            lane(d, kMetaOff, w) |= kDirty;
        if (cfg.replacement == ReplacementKind::Lru)
            touch(d, w);
        return {};
    }
    return installAt(d, sl, empty ? lowestWay(empty) : cfg.ways, line_addr,
                     dirty, prefetched, fill_time);
}

Victim
SetAssocCache::fillAfterMiss(Addr line_addr, bool dirty, Picos fill_time,
                             bool prefetched)
{
    MS_INVARIANT(fillHintDir != nullptr && fillHintLine == line_addr,
                 _name, ": fillAfterMiss without a matching miss");
    std::uint8_t *d = fillHintDir;
    fillHintDir = nullptr;
    // Install exactly as insert() would: the line cannot be present
    // (nothing touched this cache since its miss), so the hinted
    // empty way replaces the scan, and a full set falls through to
    // the victim policy with an unchanged decision sequence.
    return installAt(d, fillHintSlots, fillHintWay, line_addr, dirty,
                     prefetched, fill_time);
}

Victim
SetAssocCache::writebackInsert(Addr line_addr, Picos now)
{
    const std::uint64_t s = setIndex(line_addr);
    std::uint8_t *d = dirOf(s);
    Slot *sl = slotsOf(s);
    std::uint64_t empty = 0;
    const std::uint32_t w = find(d, sl, line_addr, empty);
    if (w < cfg.ways) {
        // Present: dirty bit only — a writeback is not a reuse, so
        // recency and statistics stay untouched.
        lane(d, kMetaOff, w) |= kDirty;
        return {};
    }
    // Absent: install dirty, exactly as insert(line, true, now) would.
    return installAt(d, sl, empty ? lowestWay(empty) : cfg.ways, line_addr,
                     true, false, now);
}

bool
SetAssocCache::invalidate(Addr line_addr)
{
    const std::uint64_t s = setIndex(line_addr);
    std::uint8_t *d = dirOf(s);
    std::uint64_t empty = 0;
    const std::uint32_t w = find(d, slotsOf(s), line_addr, empty);
    if (w == cfg.ways)
        return false;
    std::uint8_t &meta = lane(d, kMetaOff, w);
    const bool was_dirty = (meta & kDirty) != 0;
    meta = 0;
    return was_dirty;
}

bool
SetAssocCache::markDirtyIfPresent(Addr line_addr)
{
    const std::uint64_t s = setIndex(line_addr);
    std::uint8_t *d = dirOf(s);
    std::uint64_t empty = 0;
    const std::uint32_t w = find(d, slotsOf(s), line_addr, empty);
    if (w == cfg.ways)
        return false;
    lane(d, kMetaOff, w) |= kDirty;
    return true;
}

std::uint64_t
SetAssocCache::validLineCount() const
{
    std::uint64_t n = 0;
    for (std::uint64_t s = 0; s < numSets; ++s)
        n += static_cast<std::uint64_t>(
            std::popcount(~emptyWays(dirOf(s)) & waysMask));
    return n;
}

} // namespace memsense::sim
