/**
 * @file
 * Differential test of SetAssocCache against a plain reference cache.
 *
 * The reference below keeps each way as a struct with a 64-bit
 * `lastUse` stamp and scans ways with scalar loops: the simplest
 * statement of the cache's semantics. Both caches run the same random
 * mix of every operation, and every result, victim and statistic must
 * agree at every step, for each replacement policy, for associativity
 * from 1 to 64 and for power-of-two and modulo set counts. The lane
 * kernels' scalar fallback is also checked against the vector kernels
 * the cache runs on this target.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "sim/cache.hh"
#include "sim/cache_lanes.hh"
#include "util/rng.hh"

namespace memsense::sim
{
namespace
{

/** Today's cache semantics, stated as directly as possible. */
class ReferenceCache
{
  public:
    ReferenceCache(const CacheConfig &c, std::uint64_t seed)
        : cfg(c), sets(c.sets()), ways(sets * c.ways), rng(seed)
    {
    }

    LookupResult lookup(Addr a, bool is_write)
    {
        Way *w = find(a);
        if (!w) {
            ++stats.misses;
            return {};
        }
        w->lastUse = ++useCounter;
        w->rrpv = 0;
        const bool first = w->prefetched;
        w->dirty = w->dirty || is_write;
        w->prefetched = false;
        ++stats.hits;
        return {true, w->fill, first};
    }

    bool contains(Addr a) { return find(a) != nullptr; }

    Victim insert(Addr a, bool dirty, Picos fill, bool prefetched)
    {
        if (Way *w = find(a)) {
            w->dirty = w->dirty || dirty;
            w->lastUse = ++useCounter;
            return {};
        }
        Way *set = &ways[(a % sets) * cfg.ways];
        std::uint32_t slot = cfg.ways;
        for (std::uint32_t i = 0; i < cfg.ways && slot == cfg.ways; ++i)
            if (!set[i].valid)
                slot = i;
        Victim v;
        if (slot == cfg.ways) {
            slot = pickVictim(set);
            v = {true, set[slot].dirty, set[slot].tag};
            ++stats.evictions;
            stats.dirtyEvictions += v.dirty ? 1 : 0;
        }
        set[slot] = {true, a, ++useCounter, fill, dirty, prefetched, 2};
        ++stats.fills;
        return v;
    }

    Victim writebackInsert(Addr a, Picos now)
    {
        return markDirtyIfPresent(a) ? Victim{}
                                     : insert(a, true, now, false);
    }

    bool markDirtyIfPresent(Addr a)
    {
        Way *w = find(a);
        if (w)
            w->dirty = true;
        return w != nullptr;
    }

    bool invalidate(Addr a)
    {
        Way *w = find(a);
        if (!w)
            return false;
        const bool was_dirty = w->dirty;
        *w = Way{};
        return was_dirty;
    }

    /** Fill a fresh cache with the dummy lines a prefilled one holds. */
    void prefill()
    {
        for (std::uint64_t i = 0; i < ways.size(); ++i)
            ways[i] = {true,
                       (Addr{1} << 56) + (i % cfg.ways) * sets +
                           i / cfg.ways,
                       0, 0, false, false, 3};
    }

    CacheStats stats;

  private:
    struct Way
    {
        bool valid = false;
        Addr tag = 0;
        std::uint64_t lastUse = 0;
        Picos fill = 0;
        bool dirty = false;
        bool prefetched = false;
        std::uint8_t rrpv = 3;
    };

    Way *find(Addr a)
    {
        Way *set = &ways[(a % sets) * cfg.ways];
        for (std::uint32_t i = 0; i < cfg.ways; ++i)
            if (set[i].valid && set[i].tag == a)
                return &set[i];
        return nullptr;
    }

    std::uint32_t pickVictim(Way *set)
    {
        std::uint32_t v = 0;
        switch (cfg.replacement) {
          case ReplacementKind::Lru:
            for (std::uint32_t i = 1; i < cfg.ways; ++i)
                if (set[i].lastUse < set[v].lastUse)
                    v = i;
            return v;
          case ReplacementKind::Random:
            return static_cast<std::uint32_t>(rng.nextBounded(cfg.ways));
          case ReplacementKind::Srrip:
            for (;;) {
                for (std::uint32_t i = 0; i < cfg.ways; ++i)
                    if (set[i].rrpv >= 3)
                        return i;
                for (std::uint32_t i = 0; i < cfg.ways; ++i)
                    ++set[i].rrpv;
            }
        }
        return v;
    }

    CacheConfig cfg;
    std::uint64_t sets;
    std::vector<Way> ways;
    std::uint64_t useCounter = 0;
    Rng rng;
};

void
expectSame(const Victim &got, const Victim &want, const std::string &at)
{
    EXPECT_EQ(got.valid, want.valid) << at;
    EXPECT_EQ(got.dirty, want.dirty) << at;
    EXPECT_EQ(got.lineAddr, want.lineAddr) << at;
}

void
expectSame(const CacheStats &got, const CacheStats &want,
           const std::string &at)
{
    EXPECT_EQ(got.hits, want.hits) << at;
    EXPECT_EQ(got.misses, want.misses) << at;
    EXPECT_EQ(got.fills, want.fills) << at;
    EXPECT_EQ(got.evictions, want.evictions) << at;
    EXPECT_EQ(got.dirtyEvictions, want.dirtyEvictions) << at;
}

using Geometry = std::tuple<ReplacementKind, std::uint32_t, std::uint64_t>;

class CacheVsReference : public ::testing::TestWithParam<Geometry>
{
};

TEST_P(CacheVsReference, EveryStepAgrees)
{
    const auto [repl, ways, sets] = GetParam();
    CacheConfig cfg;
    cfg.ways = ways;
    cfg.sizeBytes = static_cast<std::uint64_t>(ways) * sets * kLineBytes;
    cfg.replacement = repl;
    constexpr std::uint64_t kSeed = 17;

    for (const bool prefilled : {false, true}) {
        SetAssocCache cache("dut", cfg, kSeed, nullptr, prefilled);
        ReferenceCache ref(cfg, kSeed);
        if (prefilled)
            ref.prefill();
        // Three times as many distinct lines as the cache holds, so
        // sets see hits, conflicts and fingerprint collisions.
        const std::uint64_t lines = 3 * sets * ways;
        Rng rng(ways * 1000 + sets);
        Picos now = 0;
        for (int step = 0; step < 6000; ++step) {
            const std::string at = "step " + std::to_string(step);
            // Now and then a prefill dummy's line, so touches of
            // dummies are exercised too.
            const Addr a =
                rng.chance(0.05)
                    ? (Addr{1} << 56) + rng.nextBounded(sets * ways)
                    : rng.nextBounded(lines);
            const bool flag = rng.chance(0.5);
            now += 1 + rng.nextBounded(100);
            const std::uint64_t op = rng.nextBounded(100);
            if (op < 35) {
                const LookupResult got = cache.lookup(a, flag, now);
                const LookupResult want = ref.lookup(a, flag);
                ASSERT_EQ(got.hit, want.hit) << at;
                EXPECT_EQ(got.fillTime, want.fillTime) << at;
                EXPECT_EQ(got.firstPrefetchTouch, want.firstPrefetchTouch)
                    << at;
                if (!got.hit && rng.chance(0.8)) {
                    const bool pf = rng.chance(0.2);
                    expectSame(cache.fillAfterMiss(a, flag, now + 50, pf),
                               ref.insert(a, flag, now + 50, pf), at);
                }
            } else if (op < 50) {
                const bool pf = rng.chance(0.3);
                expectSame(cache.insert(a, flag, now, pf),
                           ref.insert(a, flag, now, pf), at);
            } else if (op < 65) {
                expectSame(cache.writebackInsert(a, now),
                           ref.writebackInsert(a, now), at);
            } else if (op < 73) {
                EXPECT_EQ(cache.markDirtyIfPresent(a),
                          ref.markDirtyIfPresent(a)) << at;
            } else if (op < 81) {
                EXPECT_EQ(cache.invalidate(a), ref.invalidate(a)) << at;
            } else if (op < 89) {
                EXPECT_EQ(cache.contains(a), ref.contains(a)) << at;
            } else {
                // The prefetch path: probe, then install on absence.
                const bool present = ref.contains(a);
                ASSERT_EQ(cache.probe(a), present) << at;
                if (!present)
                    expectSame(cache.fillAfterMiss(a, false, now, true),
                               ref.insert(a, false, now, true), at);
            }
            expectSame(cache.stats(), ref.stats, at);
            if (::testing::Test::HasFailure())
                return;
        }
    }
}

std::string
geometryName(const ::testing::TestParamInfo<Geometry> &info)
{
    const auto [repl, ways, sets] = info.param;
    const char *policy = repl == ReplacementKind::Lru     ? "Lru"
                         : repl == ReplacementKind::Srrip ? "Srrip"
                                                          : "Random";
    return std::string(policy) + "_" + std::to_string(ways) + "way_" +
           std::to_string(sets) + "set";
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, CacheVsReference,
    ::testing::Combine(
        ::testing::Values(ReplacementKind::Lru, ReplacementKind::Srrip,
                          ReplacementKind::Random),
        ::testing::Values(1u, 2u, 8u, 16u, 17u, 20u, 32u, 64u),
        ::testing::Values(std::uint64_t{8}, std::uint64_t{3})),
    geometryName);

#if defined(__SSE2__)
/** One set's worth of lane arrays, laid out as the cache lays them. */
struct alignas(64) LaneLines
{
    std::array<std::uint8_t, 4 * lanes::kGroupStride> bytes{};
};

TEST(CacheLanes, ScalarFallbackMatchesSse2)
{
    Rng rng(5);
    for (unsigned groups = 1; groups <= 4; ++groups) {
        for (int trial = 0; trial < 500; ++trial) {
            LaneLines a;
            // Lanes below 128, as the cache keeps them, drawn from a
            // small range so equal lanes are common.
            for (std::uint8_t &b : a.bytes)
                b = static_cast<std::uint8_t>(rng.nextBounded(
                    trial % 2 ? 8 : 128));
            LaneLines b = a;
            const auto v = static_cast<std::uint8_t>(rng.nextBounded(8));
            ASSERT_EQ(lanes::sse2::eqMask(a.bytes.data(), v, groups),
                      lanes::scalar::eqMask(a.bytes.data(), v, groups));
            lanes::sse2::ageBelow(a.bytes.data(), v, groups);
            lanes::scalar::ageBelow(b.bytes.data(), v, groups);
            ASSERT_EQ(a.bytes, b.bytes);
        }
    }
}
#endif

} // anonymous namespace
} // namespace memsense::sim
