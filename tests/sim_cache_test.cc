/**
 * @file
 * Tests for the set-associative cache: hit/miss semantics, write-back
 * state, replacement policies, prefill, and in-flight fill times.
 */

#include <gtest/gtest.h>

#include "sim/cache.hh"
#include "util/error.hh"

namespace memsense::sim
{
namespace
{

CacheConfig
tinyCache(std::uint32_t ways = 2, std::uint64_t sets = 4,
          ReplacementKind repl = ReplacementKind::Lru)
{
    CacheConfig cfg;
    cfg.ways = ways;
    cfg.sizeBytes = static_cast<std::uint64_t>(ways) * sets * kLineBytes;
    cfg.replacement = repl;
    return cfg;
}

TEST(Cache, MissThenHit)
{
    SetAssocCache c("t", tinyCache());
    EXPECT_FALSE(c.lookup(100, false, 0).hit);
    c.insert(100, false, 0);
    EXPECT_TRUE(c.lookup(100, false, 0).hit);
    EXPECT_EQ(c.stats().hits, 1u);
    EXPECT_EQ(c.stats().misses, 1u);
    EXPECT_EQ(c.stats().fills, 1u);
}

TEST(Cache, ContainsDoesNotTouchStats)
{
    SetAssocCache c("t", tinyCache());
    c.insert(7, false, 0);
    EXPECT_TRUE(c.contains(7));
    EXPECT_FALSE(c.contains(8));
    EXPECT_EQ(c.stats().hits, 0u);
    EXPECT_EQ(c.stats().misses, 0u);
}

TEST(Cache, SetConflictEvicts)
{
    // 2 ways, 4 sets: lines 0, 4, 8 map to set 0.
    SetAssocCache c("t", tinyCache());
    c.insert(0, false, 0);
    c.insert(4, false, 0);
    Victim v = c.insert(8, false, 0);
    EXPECT_TRUE(v.valid);
    EXPECT_EQ(v.lineAddr, 0u); // LRU victim
    EXPECT_FALSE(v.dirty);
    EXPECT_FALSE(c.contains(0));
    EXPECT_TRUE(c.contains(4));
    EXPECT_TRUE(c.contains(8));
}

TEST(Cache, LruPrefersRecentlyUsed)
{
    SetAssocCache c("t", tinyCache());
    c.insert(0, false, 0);
    c.insert(4, false, 0);
    c.lookup(0, false, 0); // touch 0: now 4 is LRU
    Victim v = c.insert(8, false, 0);
    EXPECT_EQ(v.lineAddr, 4u);
}

TEST(Cache, DirtyEvictionReported)
{
    SetAssocCache c("t", tinyCache());
    c.insert(0, true, 0); // dirty install (write allocate)
    c.insert(4, false, 0);
    c.insert(8, false, 0); // evicts 0
    EXPECT_EQ(c.stats().dirtyEvictions, 1u);
}

TEST(Cache, WriteHitMarksDirty)
{
    SetAssocCache c("t", tinyCache());
    c.insert(0, false, 0);
    c.lookup(0, true, 0); // store hit
    c.insert(4, false, 0);
    Victim v = c.insert(8, false, 0);
    EXPECT_TRUE(v.dirty);
}

TEST(Cache, MarkDirtyIfPresent)
{
    SetAssocCache c("t", tinyCache());
    c.insert(0, false, 0);
    EXPECT_TRUE(c.markDirtyIfPresent(0));
    EXPECT_FALSE(c.markDirtyIfPresent(99));
    // No stats perturbation.
    EXPECT_EQ(c.stats().hits, 0u);
    c.insert(4, false, 0);
    Victim v = c.insert(8, false, 0);
    EXPECT_TRUE(v.dirty);
}

TEST(Cache, InvalidateReportsDirtiness)
{
    SetAssocCache c("t", tinyCache());
    c.insert(0, true, 0);
    c.insert(1, false, 0);
    EXPECT_TRUE(c.invalidate(0));
    EXPECT_FALSE(c.invalidate(1));
    EXPECT_FALSE(c.invalidate(12345));
    EXPECT_FALSE(c.contains(0));
}

TEST(Cache, ReinsertRefreshesWithoutEviction)
{
    SetAssocCache c("t", tinyCache());
    c.insert(0, false, 0);
    Victim v = c.insert(0, true, 0); // racing fill
    EXPECT_FALSE(v.valid);
    // Dirtiness is retained (ORed).
    c.insert(4, false, 0);
    Victim v2 = c.insert(8, false, 0);
    EXPECT_TRUE(v2.dirty);
}

TEST(Cache, FillTimeVisibleOnHit)
{
    SetAssocCache c("t", tinyCache());
    c.insert(0, false, 5000); // in flight until t=5000
    LookupResult r = c.lookup(0, false, 1000);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.fillTime, 5000u);
}

TEST(Cache, FirstPrefetchTouchReportedOnce)
{
    SetAssocCache c("t", tinyCache());
    c.insert(0, false, 100, /*prefetched=*/true);
    LookupResult first = c.lookup(0, false, 200);
    LookupResult second = c.lookup(0, false, 300);
    EXPECT_TRUE(first.firstPrefetchTouch);
    EXPECT_FALSE(second.firstPrefetchTouch);
}

TEST(Cache, PrefillFillsEveryWay)
{
    CacheConfig cfg = tinyCache(4, 8);
    SetAssocCache c("t", cfg, 1, nullptr, /*prefilled=*/true);
    EXPECT_EQ(c.validLineCount(), 32u);
    // Any real insert immediately evicts (a clean dummy).
    Victim v = c.insert(0, false, 0);
    EXPECT_TRUE(v.valid);
    EXPECT_FALSE(v.dirty);
}

TEST(Cache, PrefillEvictedBeforeRealLines)
{
    SetAssocCache c("t", tinyCache(), 1, nullptr, /*prefilled=*/true);
    c.insert(0, false, 0); // evicts a dummy
    Victim v = c.insert(4, false, 0); // evicts the other dummy, not 0
    EXPECT_TRUE(v.valid);
    EXPECT_TRUE(c.contains(0));
    EXPECT_TRUE(c.contains(4));
}

TEST(Cache, RandomReplacementStaysInSet)
{
    SetAssocCache c("t", tinyCache(2, 4, ReplacementKind::Random));
    c.insert(0, false, 0);
    c.insert(4, false, 0);
    Victim v = c.insert(8, false, 0);
    EXPECT_TRUE(v.valid);
    EXPECT_TRUE(v.lineAddr == 0u || v.lineAddr == 4u);
}

TEST(Cache, SrripEvictsNonReferencedFirst)
{
    SetAssocCache c("t", tinyCache(2, 4, ReplacementKind::Srrip));
    c.insert(0, false, 0);
    c.insert(4, false, 0);
    c.lookup(0, false, 0); // rrpv(0) = 0, rrpv(4) stays at 2
    Victim v = c.insert(8, false, 0);
    EXPECT_EQ(v.lineAddr, 4u);
}

TEST(Cache, NonPowerOfTwoSetCountWorks)
{
    // 3 sets (modulo indexing): lines 0,3,6 share set 0.
    CacheConfig cfg;
    cfg.ways = 2;
    cfg.sizeBytes = 2 * 3 * kLineBytes;
    SetAssocCache c("t", cfg);
    c.insert(0, false, 0);
    c.insert(3, false, 0);
    Victim v = c.insert(6, false, 0);
    EXPECT_TRUE(v.valid);
    EXPECT_EQ(v.lineAddr, 0u);
    EXPECT_TRUE(c.contains(3));
}

TEST(Cache, MissRatio)
{
    SetAssocCache c("t", tinyCache());
    c.lookup(0, false, 0);
    c.insert(0, false, 0);
    c.lookup(0, false, 0);
    c.lookup(0, false, 0);
    EXPECT_NEAR(c.stats().missRatio(), 1.0 / 3.0, 1e-12);
    c.clearStats();
    EXPECT_EQ(c.stats().accesses(), 0u);
    EXPECT_DOUBLE_EQ(c.stats().missRatio(), 0.0);
}

TEST(Cache, GeometryValidation)
{
    CacheConfig bad;
    bad.ways = 0;
    EXPECT_THROW(SetAssocCache("t", bad), ConfigError);
    bad = CacheConfig{};
    bad.sizeBytes = 100; // not a multiple of ways * line
    EXPECT_THROW(SetAssocCache("t", bad), ConfigError);
}

} // anonymous namespace
} // namespace memsense::sim
