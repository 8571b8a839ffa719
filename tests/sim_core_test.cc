/**
 * @file
 * Tests for the simulated core: issue timing, cache walk, MSHR/MLP
 * limits, dependent-load stalls, ROB run-ahead, and counters.
 */

#include <gtest/gtest.h>

#include <initializer_list>
#include <vector>

#include "sim/cache.hh"
#include "sim/core.hh"
#include "sim/memctrl.hh"
#include "util/error.hh"

namespace memsense::sim
{
namespace
{

/** Replays a fixed vector of micro-ops. */
class VectorStream : public OpStream
{
  public:
    explicit VectorStream(std::vector<MicroOp> ops_in)
        : ops(std::move(ops_in))
    {
    }

    bool
    next(MicroOp &op) override
    {
        if (pos >= ops.size())
            return false;
        op = ops[pos++];
        return true;
    }

  private:
    std::vector<MicroOp> ops;
    std::size_t pos = 0;
};

MicroOp
compute(std::uint32_t n)
{
    MicroOp op;
    op.kind = OpKind::Compute;
    op.count = n;
    return op;
}

MicroOp
bubble(std::uint32_t n)
{
    MicroOp op;
    op.kind = OpKind::Bubble;
    op.count = n;
    return op;
}

MicroOp
idle(std::uint32_t n)
{
    MicroOp op;
    op.kind = OpKind::Idle;
    op.count = n;
    return op;
}

MicroOp
load(Addr addr, bool dep = false)
{
    MicroOp op;
    op.kind = OpKind::Load;
    op.addr = addr;
    op.dependent = dep;
    return op;
}

MicroOp
store(Addr addr)
{
    MicroOp op;
    op.kind = OpKind::Store;
    op.addr = addr;
    return op;
}

MicroOp
ntStore(Addr addr)
{
    MicroOp op;
    op.kind = OpKind::NtStore;
    op.addr = addr;
    return op;
}

/** Test fixture wiring a single core to a private memory system. */
class CoreTest : public ::testing::Test
{
  protected:
    CoreTest()
        : mc(makeConfig()), mem(mc.dram),
          llc("llc", scaledLlc(mc), 1), core(0, mc, llc, mem)
    {
    }

    static MachineConfig
    makeConfig()
    {
        MachineConfig cfg;
        cfg.cores = 1;
        cfg.core.ghz = 1.0; // 1000 ps period: easy arithmetic
        cfg.core.issueWidth = 4.0;
        // Core-mechanics tests want raw demand-miss behavior; the
        // prefetcher has its own suite.
        cfg.core.prefetcher.enabled = false;
        return cfg;
    }

    static CacheConfig
    scaledLlc(const MachineConfig &cfg)
    {
        CacheConfig llc = cfg.llcPerCore;
        llc.sizeBytes = cfg.llcTotalBytes();
        return llc;
    }

    /** Run the whole stream to completion; returns elapsed ps. */
    Picos
    run(std::vector<MicroOp> ops)
    {
        VectorStream stream(std::move(ops));
        core.bind(stream);
        while (core.runUntil(core.now() + nsToPicos(100'000.0))) {
        }
        return core.now();
    }

    MachineConfig mc;
    MemoryController mem;
    SetAssocCache llc;
    SimCore core;
};

TEST_F(CoreTest, ComputeRetiresAtIssueWidth)
{
    Picos t = run({compute(400)});
    // 400 instructions at 4-wide, 1 GHz: 100 cycles = 100'000 ps.
    EXPECT_EQ(t, 100'000u);
    EXPECT_EQ(core.counters().instructions, 400u);
    EXPECT_EQ(core.counters().busyTime, 100'000u);
}

TEST_F(CoreTest, BubblesAddCyclesNotInstructions)
{
    Picos t = run({compute(40), bubble(50)});
    EXPECT_EQ(t, 10'000u + 50'000u);
    EXPECT_EQ(core.counters().instructions, 40u);
    EXPECT_EQ(core.counters().busyTime, t);
}

TEST_F(CoreTest, IdleCountsSeparately)
{
    run({compute(40), idle(100)});
    EXPECT_EQ(core.counters().idleTime, 100'000u);
    EXPECT_EQ(core.counters().busyTime, 10'000u);
}

TEST_F(CoreTest, DependentMissStallsForFullLatency)
{
    Picos t = run({load(1 << 20, /*dep=*/true)});
    // Page-empty DRAM latency (~61 ns) at 1 GHz; the issue slot is
    // tiny beside it.
    EXPECT_NEAR(picosToNs(t), 61.0, 3.0);
    EXPECT_EQ(core.counters().llcDemandMisses, 1u);
    EXPECT_GT(core.counters().depStall, nsToPicos(55.0));
}

TEST_F(CoreTest, IndependentMissesOverlap)
{
    // 8 independent misses to different lines: with 10 MSHRs they all
    // overlap, so elapsed ~ one latency, not eight.
    std::vector<MicroOp> ops;
    for (int i = 0; i < 8; ++i)
        ops.push_back(load(static_cast<Addr>(i) * 4096));
    // Re-touch the last line dependently so the elapsed time covers
    // the in-flight fills.
    ops.push_back(load(7 * 4096, /*dep=*/true));
    Picos t = run(ops);
    EXPECT_LT(picosToNs(t), 2.5 * 75.0);
    EXPECT_GT(picosToNs(t), 45.0);
    EXPECT_EQ(core.counters().llcDemandMisses, 8u);
    // Only the final dependent re-touch waited; eight serialized
    // misses would have taken ~8x longer.
    EXPECT_LT(core.counters().depStall, nsToPicos(150.0));
}

TEST_F(CoreTest, MshrExhaustionStalls)
{
    // 3x the MSHR count of independent misses: the core must stall on
    // MSHR reclaim at least once.
    std::vector<MicroOp> ops;
    for (std::uint32_t i = 0; i < 3 * makeConfig().core.mshrs; ++i)
        ops.push_back(load(static_cast<Addr>(i) * 4096));
    run(ops);
    EXPECT_GT(core.counters().mshrStall, 0u);
}

TEST_F(CoreTest, SecondAccessHitsTheHierarchy)
{
    run({load(4096, true), compute(400), load(4096, true)});
    EXPECT_EQ(core.counters().llcDemandMisses, 1u);
    EXPECT_EQ(core.l1().stats().hits, 1u);
}

TEST_F(CoreTest, StoresDoNotBlock)
{
    // A dependent-marked store is still non-blocking (store buffer).
    MicroOp s = store(1 << 20);
    s.dependent = true;
    Picos t = run({s, compute(400)});
    EXPECT_LT(picosToNs(t), 110.0);
    EXPECT_EQ(core.counters().stores, 1u);
    EXPECT_EQ(core.counters().depStall, 0u);
}

TEST_F(CoreTest, NtStoreBypassesCaches)
{
    run({ntStore(1 << 20)});
    EXPECT_EQ(core.counters().ntStores, 1u);
    EXPECT_EQ(core.counters().writebacks, 1u);
    EXPECT_EQ(core.counters().llcDemandMisses, 0u);
    EXPECT_FALSE(llc.contains((1 << 20) >> kLineShift));
    EXPECT_EQ(mem.stats().writes, 1u);
}

TEST_F(CoreTest, CountersDeriveModelInputs)
{
    std::vector<MicroOp> ops;
    for (int i = 0; i < 4; ++i) {
        ops.push_back(load(static_cast<Addr>(i) * 8192, true));
        ops.push_back(compute(96));
    }
    run(ops);
    const CoreCounters &k = core.counters();
    EXPECT_EQ(k.memoryFetches(), 4u);
    EXPECT_NEAR(k.mpki(), 4000.0 / 388.0, 0.5);
    // One page-empty access (~61 ns) plus three row hits (~47 ns).
    EXPECT_NEAR(k.avgMissPenaltyNs(), 50.0, 6.0);
}

TEST_F(CoreTest, StreamEndReported)
{
    VectorStream stream({compute(4)});
    core.bind(stream);
    EXPECT_FALSE(core.runUntil(core.now() + nsToPicos(1000.0)));
    EXPECT_TRUE(core.done());
}

TEST(CoreTime, SubPicosecondIssueSlotsAccumulateExactly)
{
    // 16-wide at 1 GHz: an issue slot is 62.5 ps. Whole picoseconds
    // advance and the half is carried, never rounded away.
    MachineConfig mc;
    mc.cores = 1;
    mc.core.ghz = 1.0;
    mc.core.issueWidth = 16.0;
    mc.core.prefetcher.enabled = false;
    MemoryController mem(mc.dram);
    SetAssocCache llc("llc", mc.llcPerCore, 1);
    SimCore core(0, mc, llc, mem);
    VectorStream stream(std::vector<MicroOp>(16, compute(1)));
    core.bind(stream);
    EXPECT_TRUE(core.runUntil(150));
    EXPECT_EQ(core.now(), 187u); // three slots: 187.5 ps
    EXPECT_FALSE(core.runUntil(1'000'000));
    EXPECT_EQ(core.now(), 1'000u); // sixteen slots: one cycle
    EXPECT_EQ(core.counters().instructions, 16u);
}

TEST(CoreTime, IssueWidthMustBeAPowerOfTwo)
{
    // Fixed-point core time represents an issue slot exactly only for
    // power-of-two widths, so other widths are a config error.
    CoreConfig c;
    for (double w : {0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0}) {
        c.issueWidth = w;
        EXPECT_NO_THROW(c.validate()) << w;
    }
    for (double w : {3.0, 1.5, 6.0, 0.3}) {
        c.issueWidth = w;
        EXPECT_THROW(c.validate(), ConfigError) << w;
    }
}

} // anonymous namespace
} // namespace memsense::sim
