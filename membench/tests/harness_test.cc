/**
 * @file
 * Unit tests of the benchmark's own measurement code: quantiles,
 * open-loop due-time accounting, metric names and the result line.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "harness.hh"

namespace membench
{
namespace
{

TEST(QuantileNearestRank, NoSamplesHasNoValue)
{
    EXPECT_FALSE(quantileNearestRank({}, 0.5).has_value());
    EXPECT_FALSE(quantileNearestRank({}, 0.99).has_value());
    EXPECT_THROW(medianOf({}), std::logic_error);
}

TEST(QuantileNearestRank, OneSampleIsEveryQuantile)
{
    for (double p : {0.0, 0.01, 0.5, 0.99, 1.0})
        EXPECT_EQ(quantileNearestRank({7.5}, p), 7.5) << p;
}

TEST(QuantileNearestRank, RankIsCeilOfPTimesN)
{
    // Unsorted input; sorted it is 1..10.
    const std::vector<double> v = {10, 3, 1, 7, 2, 9, 4, 8, 6, 5};
    EXPECT_EQ(quantileNearestRank(v, 0.0), 1);
    EXPECT_EQ(quantileNearestRank(v, 0.1), 1);
    EXPECT_EQ(quantileNearestRank(v, 0.11), 2);
    EXPECT_EQ(quantileNearestRank(v, 0.5), 5);
    EXPECT_EQ(quantileNearestRank(v, 0.51), 6);
    EXPECT_EQ(quantileNearestRank(v, 0.99), 10);
    EXPECT_EQ(quantileNearestRank(v, 1.0), 10);
    EXPECT_EQ(medianOf({4, 1, 3, 2}), 2);
}

TEST(QuantileNearestRank, NeverIndexesPastTheEnd)
{
    std::vector<double> v(100);
    for (std::size_t i = 0; i < v.size(); ++i)
        v[i] = static_cast<double>(i);
    EXPECT_EQ(quantileNearestRank(v, 0.99), 98);
    EXPECT_EQ(quantileNearestRank(v, 1.5), 99);
    EXPECT_EQ(quantileNearestRank(v, -1.0), 0);
}

/** A fake clock: sleepUntil jumps there; stalls are injected by send. */
struct FakeClock
{
    double t = 0.0;

    PacingClock
    pacing()
    {
        PacingClock c;
        c.now = [this] { return t; };
        c.sleepUntil = [this](double until) { t = std::max(t, until); };
        return c;
    }
};

TEST(OpenLoop, OnTimeGeneratorHasZeroLatencyFromDue)
{
    FakeClock clock;
    const OpenLoopSchedule sched(1.0, 100.0); // due every 10 ms
    std::vector<double> sent;
    const double late = paceOpenLoop(sched, 0, 1, 5, clock.pacing(),
                                     [&](std::uint64_t i) {
                                         sent.push_back(clock.t);
                                         EXPECT_DOUBLE_EQ(clock.t,
                                                          sched.dueAt(i));
                                     });
    EXPECT_EQ(late, 0.0);
    ASSERT_EQ(sent.size(), 5u);
    EXPECT_DOUBLE_EQ(sched.latencyFromDue(4, sent[4]), 0.0);
}

TEST(OpenLoop, StallIsChargedToTheRequestsAfterIt)
{
    FakeClock clock;
    const OpenLoopSchedule sched(0.0, 1000.0); // due every 1 ms
    std::vector<double> send_time(20);
    const double late = paceOpenLoop(
        sched, 0, 1, 20, clock.pacing(), [&](std::uint64_t i) {
            send_time[i] = clock.t;
            if (i == 4)
                clock.t += 0.050; // the generator stalls 50 ms
        });
    // Requests 0..4 went out on time. Requests 5..19 were due during
    // the stall and leave at its end (t = 54 ms): each is charged the
    // wait from its own due time, not from when it was sent.
    for (std::uint64_t i = 0; i <= 4; ++i)
        EXPECT_DOUBLE_EQ(sched.latencyFromDue(i, send_time[i]), 0.0);
    for (std::uint64_t i = 5; i < 20; ++i) {
        EXPECT_DOUBLE_EQ(send_time[i], 0.054);
        EXPECT_NEAR(sched.latencyFromDue(i, send_time[i]),
                    0.054 - 0.001 * static_cast<double>(i), 1e-12);
    }
    EXPECT_NEAR(late, 0.049, 1e-12); // request 5: due 5 ms, sent 54 ms
    // A reply 100 us after the send of request 5 reads 49.1 ms, where
    // timing from the send would hide the stall and read 0.1 ms.
    EXPECT_NEAR(sched.latencyFromDue(5, 0.0541), 0.0491, 1e-12);
}

TEST(OpenLoop, StridedSendersShareOneSchedule)
{
    FakeClock clock;
    const OpenLoopSchedule sched(0.0, 1000.0);
    std::vector<std::uint64_t> ids;
    paceOpenLoop(sched, 1, 2, 3, clock.pacing(),
                 [&](std::uint64_t i) { ids.push_back(i); });
    EXPECT_EQ(ids, (std::vector<std::uint64_t>{1, 3, 5}));
    EXPECT_DOUBLE_EQ(clock.t, 0.005);
    EXPECT_THROW(OpenLoopSchedule(0.0, 0.0), std::invalid_argument);
}

TEST(MetricNames, AcceptTheBenchmarkAlphabet)
{
    for (const char *ok : {"sweep_s", "p50_ms", "sim.l1.miss_ratio",
                           "a-b", "9lives", "X"})
        EXPECT_TRUE(validMetricName(ok)) << ok;
    EXPECT_TRUE(validMetricName(std::string(64, 'a')));
}

TEST(MetricNames, RejectEverythingElse)
{
    for (const char *bad : {"", ".hidden", "_x", "-x", "has space",
                            "quote\"", "slash/x", "p99%", "ünits"})
        EXPECT_FALSE(validMetricName(bad)) << bad;
    EXPECT_FALSE(validMetricName(std::string(65, 'a')));
}

TEST(Metrics, RejectsBadNamesRepeatsAndNonFiniteValues)
{
    Metrics m;
    m.add("sweep_s", 1.25, "s");
    EXPECT_THROW(m.add("sweep_s", 2.0, "s"), std::invalid_argument);
    EXPECT_THROW(m.add("bad name", 1.0, "s"), std::invalid_argument);
    EXPECT_THROW(m.add("x", 1.0, ""), std::invalid_argument);
    EXPECT_THROW(m.add("nan", std::nan(""), "s"), std::invalid_argument);
    EXPECT_THROW(m.add("inf", std::numeric_limits<double>::infinity(), "s"),
                 std::invalid_argument);
    EXPECT_EQ(m.json(), "{\"sweep_s\": {\"value\": 1.25, \"unit\": \"s\"}}");
}

TEST(ResultLine, CarriesCountsAndFullPrecisionValues)
{
    Checks c;
    c.pass(3);
    Metrics m;
    m.add("latency_ms", 0.1 + 0.2, "ms");
    EXPECT_EQ(resultLine(c, m),
              "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
              "\"metrics\": {\"latency_ms\": {\"value\": "
              "0.30000000000000004, \"unit\": \"ms\"}}}");
    c.fail(1, "test");
    EXPECT_EQ(c.attempted(), 4u);
    EXPECT_DOUBLE_EQ(c.errorRate(), 0.25);
    EXPECT_NE(resultLine(c, m).find("\"correct\": false"), std::string::npos);
    // Nothing attempted is not correct either.
    EXPECT_NE(resultLine(Checks{}, m).find("\"correct\": false"),
              std::string::npos);
}

} // anonymous namespace
} // namespace membench
