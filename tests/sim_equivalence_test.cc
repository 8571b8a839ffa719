/**
 * @file
 * SoA-vs-golden equivalence: pins bit-exact simulation counters.
 *
 * The AoSoA cache refactor, batched op runs, the fused writeback scan,
 * and the arena-backed layout all promise *identical* simulation
 * semantics — not "close", identical. This test runs a fixed
 * (workload, seed, geometry) matrix and compares every integer
 * counter against values captured from the pre-refactor
 * array-of-structs implementation. Any divergence — one extra rng
 * call, one reordered eviction, one off-by-one in a tag scan — shows
 * up as an exact counter mismatch here, long before it would show up
 * as a subtle drift in a fitted figure.
 *
 * The golden table was produced by the pre-refactor build with this
 * exact RunConfig; regenerating it requires checking out a pre-SoA
 * tree, so treat a mismatch as a bug in the refactor, not a stale
 * fixture.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>

#include "measure/runner.hh"
#include "sim/machine.hh"
#include "util/log.hh"
#include "util/units.hh"

using namespace memsense;

namespace
{

struct GoldenCounters
{
    const char *id;
    // MachineSnapshot totals.
    std::uint64_t instructions, memoryFetches, writebacks;
    Picos busyTime, idleTime, dramLatencyTotal;
    // Shared-LLC stats.
    std::uint64_t llcHits, llcMisses, llcFills, llcEvictions,
        llcDirtyEvictions;
    // Memory-controller aggregate stats.
    std::uint64_t mcReads, mcWrites;
    Picos mcTotalReadLatency;
    // Channel-0 stats.
    std::uint64_t ch0Reads, ch0Writes, ch0RowHits;
    Picos ch0BusBusy, ch0QueueDelay;
    // Core-0 counters.
    std::uint64_t c0Instructions, c0Loads;
    Picos c0MshrStall, c0DepStall, c0RobStall, c0BusyTime;
};

// Captured from the pre-SoA array-of-structs simulator (see file
// comment). One row per workload class exercised by the paper's
// figures: streaming scan, pointer-chasing OLTP, HPC, JVM-heavy
// Spark, and idle-heavy web caching.
constexpr GoldenCounters kGolden[] = {
    {"column_store",
     1826964ull, 11096ull, 0ull,
     799966265ll, 0ll, 792985431ll,
     6675ull, 10004ull, 16695ull, 16695ull, 0ull,
     16695ull, 0ull, 1191387164ll,
     4246ull, 0ull, 835ull, 22745822ll, 10610522ll,
     1364240ull, 55143ull, 0ll, 138533109ll, 6683ll, 600011844ll},
    {"oltp",
     741156ull, 8773ull, 0ull,
     800890279ll, 0ll, 676736624ll,
     75ull, 13175ull, 13175ull, 13175ull, 0ull,
     18295ull, 1024ull, 5004012928ll,
     4545ull, 224ull, 1772ull, 25547533ll, 1118162688ll,
     551874ull, 5562ull, 0ll, 308860434ll, 0ll, 600550760ll},
    {"bwaves",
     2527393ull, 79296ull, 8098ull,
     799944214ll, 0ll, 5802006923ll,
     85466ull, 33754ull, 119285ull, 119285ull, 8098ull,
     119285ull, 8098ull, 8626204071ll,
     29811ull, 1987ull, 22094ull, 170341886ll, 570405179ll,
     1885029ull, 45054ull, 29770ll, 216316634ll, 0ll, 600003730ll},
    {"spark",
     1059329ull, 7654ull, 0ull,
     492279313ll, 299700000ll, 523775453ll,
     1907ull, 9923ull, 11810ull, 11810ull, 0ull,
     11810ull, 0ull, 804619160ll,
     2967ull, 0ull, 888ull, 15894219ll, 6430962ll,
     791644ull, 7544ull, 0ll, 134719584ll, 0ll, 378246697ll},
    {"web_caching",
     550376ull, 2975ull, 0ull,
     437335963ll, 362970000ll, 225018506ll,
     0ull, 4464ull, 4464ull, 4464ull, 0ull,
     4464ull, 0ull, 337293108ll,
     1141ull, 0ull, 4ull, 6112337ll, 1500282ll,
     412797ull, 2141ull, 0ll, 88711120ll, 0ll, 329225312ll},
};

// Without this gtest prints the parameter as raw bytes, which start
// with the `id` pointer; under ASLR that made the discovered ctest
// names differ from build to build.
void PrintTo(const GoldenCounters &g, std::ostream *os) { *os << g.id; }

class SimEquivalence : public ::testing::TestWithParam<GoldenCounters>
{
};

TEST_P(SimEquivalence, BitIdenticalToPreSoaGolden)
{
    const GoldenCounters &g = GetParam();
    setLogLevel(LogLevel::Warn);

    measure::RunConfig rc;
    rc.workloadId = g.id;
    rc.cores = 2;
    rc.ghz = 2.7;
    rc.memMtPerSec = 1866.7;
    rc.channels = 4;
    rc.seed = 7;
    rc.adaptiveWarmup = false;
    rc.warmup = nsToPicos(200'000.0);
    rc.measure = nsToPicos(400'000.0);

    measure::WorkloadRun run(rc);
    run.warmup();
    sim::MachineSnapshot d = run.measure();
    const sim::Machine &m = run.machine();
    const sim::CoreCounters &c0 = m.core(0).counters();
    const sim::CacheStats &llc = m.llc().stats();
    const sim::MemCtrlStats &mc = m.memctrl().stats();
    const sim::ChannelStats &ch0 = m.memctrl().channelStats(0);

    EXPECT_EQ(d.instructions, g.instructions);
    EXPECT_EQ(d.memoryFetches, g.memoryFetches);
    EXPECT_EQ(d.writebacks, g.writebacks);
    EXPECT_EQ(d.busyTime, g.busyTime);
    EXPECT_EQ(d.idleTime, g.idleTime);
    EXPECT_EQ(d.dramLatencyTotal, g.dramLatencyTotal);

    EXPECT_EQ(llc.hits, g.llcHits);
    EXPECT_EQ(llc.misses, g.llcMisses);
    EXPECT_EQ(llc.fills, g.llcFills);
    EXPECT_EQ(llc.evictions, g.llcEvictions);
    EXPECT_EQ(llc.dirtyEvictions, g.llcDirtyEvictions);

    EXPECT_EQ(mc.reads, g.mcReads);
    EXPECT_EQ(mc.writes, g.mcWrites);
    EXPECT_EQ(mc.totalReadLatency, g.mcTotalReadLatency);

    EXPECT_EQ(ch0.reads, g.ch0Reads);
    EXPECT_EQ(ch0.writes, g.ch0Writes);
    EXPECT_EQ(ch0.rowHits, g.ch0RowHits);
    EXPECT_EQ(ch0.busBusy, g.ch0BusBusy);
    EXPECT_EQ(ch0.queueDelay, g.ch0QueueDelay);

    EXPECT_EQ(c0.instructions, g.c0Instructions);
    EXPECT_EQ(c0.loads, g.c0Loads);
    EXPECT_EQ(c0.mshrStall, g.c0MshrStall);
    EXPECT_EQ(c0.depStall, g.c0DepStall);
    EXPECT_EQ(c0.robStall, g.c0RobStall);
    EXPECT_EQ(c0.busyTime, g.c0BusyTime);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, SimEquivalence, ::testing::ValuesIn(kGolden),
    [](const ::testing::TestParamInfo<GoldenCounters> &param_info) {
        return std::string(param_info.param.id);
    });

} // namespace
