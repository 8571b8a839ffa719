/**
 * @file
 * Tests for the fault-tolerant experiment engine: retry-then-succeed,
 * quarantine on exhausted retries, fatal classification, cooperative
 * per-job deadlines on a virtual clock, checkpoint/resume bit-identity
 * at several worker counts, torn-journal tolerance, and no-abort
 * behaviour under injected faults — including the full
 * characterization sweep.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "measure/checkpoint.hh"
#include "measure/freq_scaling.hh"
#include "measure/loaded_latency.hh"
#include "measure/parallel.hh"
#include "measure/resilience.hh"
#include "measure/timeseries.hh"
#include "util/error.hh"
#include "util/fault_injection.hh"
#include "util/log.hh"

namespace memsense::measure
{
namespace
{

/** Deterministic, irrational-ish job value (bit-exactness matters). */
double
jobValue(std::size_t i)
{
    return std::sin(static_cast<double>(i) + 0.25) * 1e3 +
           std::sqrt(static_cast<double>(i) + 0.5);
}

/** Retry options that never really sleep. */
ResilienceOptions
fastOptions(int max_attempts)
{
    ResilienceOptions opts;
    opts.retry.maxAttempts = max_attempts;
    opts.sleepMs = [](double) {};
    return opts;
}

CheckpointCodec<double>
doubleCodec()
{
    CheckpointCodec<double> codec;
    codec.encode = [](const double &v) { return encodeDoubles({v}); };
    codec.decode = [](const std::string &payload) -> std::optional<double> {
        auto v = decodeDoubles(payload);
        if (!v || v->size() != 1)
            return std::nullopt;
        return (*v)[0];
    };
    return codec;
}

std::string
tempJournal(const std::string &name)
{
    const std::string path = ::testing::TempDir() + name;
    std::remove(path.c_str());
    return path;
}

class MeasureResilienceTest : public ::testing::Test
{
  protected:
    static void SetUpTestSuite() { setLogLevel(LogLevel::Warn); }

    void SetUp() override { fault::reset(); }

    void
    TearDown() override
    {
        fault::setSleepHandler(nullptr);
        fault::reset();
    }
};

TEST_F(MeasureResilienceTest, CleanSweepMatchesMapOrdered)
{
    std::vector<int> inputs = {1, 2, 3, 4, 5, 6, 7};
    auto fn = [](const int &x) { return jobValue(static_cast<std::size_t>(x)); };
    ParallelExecutor exec(4);
    auto plain = exec.mapOrdered(inputs, fn);
    auto resilient = exec.mapOrderedResilient(inputs, fn, fastOptions(3));
    ASSERT_EQ(resilient.size(), plain.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
        ASSERT_TRUE(resilient[i].ok()) << "job " << i;
        EXPECT_EQ(*resilient[i].value, plain[i]) << "job " << i;
        EXPECT_EQ(resilient[i].attempts, 1);
    }
    EXPECT_TRUE(FailureManifest::collect(resilient).empty());
}

TEST_F(MeasureResilienceTest, TransientFailuresRetryToSuccess)
{
    const std::size_t n = 8;
    std::vector<std::size_t> inputs(n);
    for (std::size_t i = 0; i < n; ++i)
        inputs[i] = i;
    // Job i fails its first (i % 3) calls, then succeeds — independent
    // of scheduling, so the test is exact at any worker count.
    std::vector<std::atomic<int>> calls(n);
    auto fn = [&calls](const std::size_t &i) {
        if (calls[i].fetch_add(1) < static_cast<int>(i % 3))
            throw TransientError("transient");
        return jobValue(i);
    };
    for (int jobs : {1, 8}) {
        for (auto &c : calls)
            c.store(0);
        ParallelExecutor exec(jobs);
        auto results = exec.mapOrderedResilient(inputs, fn, fastOptions(3));
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_TRUE(results[i].ok()) << "jobs=" << jobs << " job " << i;
            EXPECT_EQ(*results[i].value, jobValue(i));
            EXPECT_EQ(results[i].attempts, static_cast<int>(i % 3) + 1);
        }
    }
}

TEST_F(MeasureResilienceTest, ExhaustedRetriesQuarantine)
{
    std::vector<std::size_t> inputs = {0, 1, 2};
    auto fn = [](const std::size_t &i) {
        if (i == 1)
            throw TransientError("always failing");
        return jobValue(i);
    };
    ParallelExecutor exec(1);
    auto results = exec.mapOrderedResilient(inputs, fn, fastOptions(3));
    ASSERT_EQ(results.size(), 3u);
    EXPECT_TRUE(results[0].ok());
    EXPECT_TRUE(results[2].ok());
    ASSERT_FALSE(results[1].ok());
    const FailureRecord &rec = *results[1].failure;
    EXPECT_EQ(rec.jobIndex, 1u);
    EXPECT_EQ(rec.errorType, "TransientError");
    EXPECT_NE(rec.message.find("always failing"), std::string::npos)
        << rec.message;
    EXPECT_EQ(rec.attempts, 3);
    EXPECT_FALSE(rec.fatal);
    EXPECT_FALSE(rec.timedOut);

    FailureManifest m = FailureManifest::collect(results);
    ASSERT_EQ(m.failures.size(), 1u);
    const std::string summary = m.summary(results.size());
    EXPECT_NE(summary.find("1 of 3"), std::string::npos) << summary;
    const std::string json = m.toJson();
    EXPECT_NE(json.find("\"quarantined\": 1"), std::string::npos) << json;
    EXPECT_NE(json.find("TransientError"), std::string::npos) << json;
}

TEST_F(MeasureResilienceTest, FatalErrorsAreNeverRetried)
{
    std::vector<std::size_t> inputs = {0, 1};
    std::atomic<int> calls{0};
    auto fn = [&calls](const std::size_t &i) {
        if (i == 0) {
            ++calls;
            throw ConfigError("bad job");
        }
        return jobValue(i);
    };
    ParallelExecutor exec(1);
    auto results = exec.mapOrderedResilient(inputs, fn, fastOptions(5));
    ASSERT_FALSE(results[0].ok());
    EXPECT_EQ(calls.load(), 1) << "fatal errors must not be retried";
    EXPECT_TRUE(results[0].failure->fatal);
    EXPECT_EQ(results[0].failure->errorType, "ConfigError");
    EXPECT_TRUE(results[1].ok());
}

TEST_F(MeasureResilienceTest, DeadlineCutsRetriesOnVirtualClock)
{
    // Virtual clock: injected delay faults advance it inside the job,
    // backoff sleeps advance it between attempts. Nothing real-sleeps.
    double clock_ms = 0.0;
    fault::setSleepHandler([&clock_ms](double ms) { clock_ms += ms; });
    fault::configure("resilience.slow:delay=100");

    ResilienceOptions opts;
    opts.retry.maxAttempts = 10;
    opts.jobTimeoutMs = 150.0;
    opts.nowMs = [&clock_ms]() { return clock_ms; };
    opts.sleepMs = [&clock_ms](double ms) { clock_ms += ms; };

    std::vector<std::size_t> inputs = {0};
    auto fn = [](const std::size_t &) -> double {
        MS_FAULT_POINT("resilience.slow"); // +100 virtual ms
        throw TransientError("slow and failing");
    };
    ParallelExecutor exec(1);
    auto results = exec.mapOrderedResilient(inputs, fn, opts);
    ASSERT_FALSE(results[0].ok());
    const FailureRecord &rec = *results[0].failure;
    EXPECT_TRUE(rec.timedOut);
    EXPECT_FALSE(rec.fatal);
    EXPECT_EQ(rec.attempts, 2) << "deadline must cut the retry budget";
    EXPECT_GE(rec.elapsedMs, 150.0);
}

TEST_F(MeasureResilienceTest, TimeoutNeverDiscardsASuccess)
{
    // A job that finishes over budget still keeps its value: the
    // deadline only stops further retries, it never tears results.
    double clock_ms = 0.0;
    fault::setSleepHandler([&clock_ms](double ms) { clock_ms += ms; });
    fault::configure("resilience.slowok:delay=500");

    ResilienceOptions opts = fastOptions(3);
    opts.jobTimeoutMs = 100.0;
    opts.nowMs = [&clock_ms]() { return clock_ms; };

    std::vector<std::size_t> inputs = {4};
    auto fn = [](const std::size_t &i) {
        MS_FAULT_POINT("resilience.slowok"); // +500 virtual ms
        return jobValue(i);
    };
    ParallelExecutor exec(1);
    auto results = exec.mapOrderedResilient(inputs, fn, opts);
    ASSERT_TRUE(results[0].ok());
    EXPECT_EQ(*results[0].value, jobValue(4));
}

TEST_F(MeasureResilienceTest, CheckpointResumeIsBitIdentical)
{
    const std::size_t n = 12;
    std::vector<std::size_t> inputs(n);
    for (std::size_t i = 0; i < n; ++i)
        inputs[i] = i;
    std::atomic<bool> failing{true};
    auto fn = [&failing](const std::size_t &i) {
        if (failing.load() && i % 3 == 1)
            throw TransientError("injected outage");
        return jobValue(i);
    };

    for (int jobs : {1, 8}) {
        ParallelExecutor exec(jobs);
        // Reference: uninterrupted, no failures, no checkpoint.
        failing = false;
        auto reference =
            exec.mapOrderedResilient(inputs, fn, fastOptions(2));

        const std::string path =
            tempJournal("ckpt_jobs" + std::to_string(jobs) + ".journal");

        // Pass 1: a third of the jobs fail out of their retry budget
        // and are quarantined; the successes land in the journal.
        failing = true;
        auto pass1 = mapOrderedResilientCheckpointed(
            exec, inputs, fn, fastOptions(2), path, "ckpt-test-v1",
            doubleCodec());
        std::size_t quarantined = 0;
        for (const auto &r : pass1)
            quarantined += r.ok() ? 0 : 1;
        EXPECT_EQ(quarantined, 4u) << "jobs=" << jobs;

        // Pass 2 ("resume after the outage"): only the failed jobs
        // re-run; restored jobs report attempts == 0.
        failing = false;
        auto pass2 = mapOrderedResilientCheckpointed(
            exec, inputs, fn, fastOptions(2), path, "ckpt-test-v1",
            doubleCodec());
        ASSERT_EQ(pass2.size(), reference.size());
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_TRUE(pass2[i].ok()) << "jobs=" << jobs << " job " << i;
            EXPECT_EQ(*pass2[i].value, *reference[i].value)
                << "jobs=" << jobs << " job " << i;
            if (i % 3 == 1)
                EXPECT_GE(pass2[i].attempts, 1) << "job " << i
                                                << " should have re-run";
            else
                EXPECT_EQ(pass2[i].attempts, 0)
                    << "job " << i << " should restore from the journal";
        }

        // Pass 3: everything restores; nothing re-runs.
        auto pass3 = mapOrderedResilientCheckpointed(
            exec, inputs, fn, fastOptions(2), path, "ckpt-test-v1",
            doubleCodec());
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_TRUE(pass3[i].ok());
            EXPECT_EQ(pass3[i].attempts, 0);
            EXPECT_EQ(*pass3[i].value, *reference[i].value);
        }
        std::remove(path.c_str());
    }
}

TEST_F(MeasureResilienceTest, JournalKeyMismatchIsAConfigError)
{
    const std::string path = tempJournal("ckpt_key.journal");
    {
        CheckpointJournal journal(path, "sweep-A");
        journal.append(0, true, "payload");
    }
    EXPECT_THROW(CheckpointJournal(path, "sweep-B"), ConfigError);
    // The matching key still opens and restores.
    CheckpointJournal again(path, "sweep-A");
    ASSERT_EQ(again.restored().size(), 1u);
    EXPECT_EQ(again.restored().at(0).payload, "payload");
    std::remove(path.c_str());
}

TEST_F(MeasureResilienceTest, TornAndCorruptJournalLinesAreSkipped)
{
    const std::string path = tempJournal("ckpt_torn.journal");
    {
        CheckpointJournal journal(path, "torn-test");
        journal.append(0, true, encodeDoubles({jobValue(0)}));
        journal.append(1, false, "TransientError");
        journal.append(1, true, encodeDoubles({jobValue(1)}));
    }
    {
        // Simulate a crash mid-append: a checksum-less record, a
        // corrupted checksum, and a torn tail with no newline.
        std::ofstream raw(path, std::ios::binary | std::ios::app);
        raw << "R 2 ok deadbeef\n";
        raw << "R 3 ok cafe #0000000000000000\n";
        raw << "R 4 o";
    }
    CheckpointJournal journal(path, "torn-test");
    ASSERT_EQ(journal.restored().size(), 2u);
    EXPECT_TRUE(journal.restored().at(0).ok);
    EXPECT_TRUE(journal.restored().at(1).ok)
        << "the later ok record must supersede the quarantine record";
    EXPECT_EQ(journal.restored().count(2), 0u);
    EXPECT_EQ(journal.restored().count(3), 0u);
    EXPECT_EQ(journal.restored().count(4), 0u);
    std::remove(path.c_str());
}

TEST_F(MeasureResilienceTest, AppendRejectsUnjournalablePayloads)
{
    const std::string path = tempJournal("ckpt_payload.journal");
    CheckpointJournal journal(path, "payload-test");
    EXPECT_THROW(journal.append(0, true, "two\nlines"), ConfigError);
    EXPECT_THROW(journal.append(0, true, "has # hash"), ConfigError);
    std::remove(path.c_str());
}

TEST_F(MeasureResilienceTest, InjectedFaultsNeverAbortTheSweep)
{
    // The acceptance property: under probabilistic injected faults,
    // every job either retries to success or lands in the failure
    // manifest — the sweep itself always completes.
    fault::configure("seed=11;resilience.random:throw:p=0.4");
    const std::size_t n = 32;
    std::vector<std::size_t> inputs(n);
    for (std::size_t i = 0; i < n; ++i)
        inputs[i] = i;
    auto fn = [](const std::size_t &i) {
        MS_FAULT_POINT("resilience.random");
        return jobValue(i);
    };
    for (int jobs : {1, 8}) {
        fault::configure("seed=11;resilience.random:throw:p=0.4");
        ParallelExecutor exec(jobs);
        std::vector<JobResult<double>> results;
        ASSERT_NO_THROW(results = exec.mapOrderedResilient(
                            inputs, fn, fastOptions(4)))
            << "jobs=" << jobs;
        ASSERT_EQ(results.size(), n);
        std::size_t ok = 0;
        for (std::size_t i = 0; i < n; ++i) {
            if (results[i].ok()) {
                ++ok;
                EXPECT_EQ(*results[i].value, jobValue(i));
            } else {
                EXPECT_EQ(results[i].failure->errorType, "FaultInjected");
                EXPECT_EQ(results[i].failure->attempts, 4);
            }
        }
        // p=0.4 with 4 attempts: most jobs must make it through.
        EXPECT_GT(ok, n / 2) << "jobs=" << jobs;
    }
}

TEST_F(MeasureResilienceTest, ResolveJobsNeverReturnsZero)
{
    EXPECT_GE(resolveJobs(0), 1);
    EXPECT_GE(resolveJobs(-4), 1);
    EXPECT_EQ(resolveJobs(3), 3);
}

/**
 * Small real characterization grid: four points (two per core speed),
 * so an nth=3 fault fires at least once; two workers.
 */
FreqScalingConfig
quickSweep()
{
    FreqScalingConfig cfg;
    cfg.coreGhz = {2.1, 3.1};
    cfg.memMtPerSec = {1866.7};
    cfg.runsPerPoint = 2;
    cfg.warmup = nsToPicos(300'000.0);
    cfg.measure = nsToPicos(300'000.0);
    cfg.adaptiveWarmup = false;
    cfg.coresOverride = 2;
    cfg.jobs = 2;
    return cfg;
}

/** Small real loaded-latency sweep: three delay points. */
LoadedLatencySetup
quickMlc()
{
    LoadedLatencySetup setup;
    setup.cores = 2;
    setup.delayCycles = {0, 64, 512};
    setup.warmup = nsToPicos(20'000.0);
    setup.measure = nsToPicos(40'000.0);
    setup.jobs = 2;
    return setup;
}

/** End-to-end: the real characterization sweep under injected faults. */
TEST_F(MeasureResilienceTest, CharacterizationSurvivesInjectedFaults)
{
    FreqScalingConfig cfg = quickSweep();

    const std::vector<std::string> ids = {"column_store"};
    auto clean = characterizeMany(ids, cfg);

    // Every third hit of the grid-point runner throws a retryable
    // fault; with two extra attempts every point must still succeed,
    // and the retried re-runs must be bit-identical to the clean run.
    fault::configure("runner.observe:throw:nth=3");
    cfg.resilience.maxRetries = 2;
    FailureManifest manifest;
    std::vector<Characterization> r = characterizeMany(ids, cfg, &manifest);
    EXPECT_GT(fault::fireCount("runner.observe"), 0u);
    fault::reset();

    EXPECT_TRUE(manifest.empty())
        << "nth=3 faults with 2 retries must all recover: "
        << manifest.summary(clean[0].observations.size());
    ASSERT_EQ(r.size(), clean.size());
    ASSERT_EQ(r[0].observations.size(), clean[0].observations.size());
    for (std::size_t i = 0; i < clean[0].observations.size(); ++i) {
        EXPECT_EQ(r[0].observations[i].cpiEff,
                  clean[0].observations[i].cpiEff)
            << "observation " << i;
        EXPECT_EQ(r[0].observations[i].mpCycles,
                  clean[0].observations[i].mpCycles);
    }
    EXPECT_EQ(r[0].model.params.cpiCache, clean[0].model.params.cpiCache);
}

/** characterize() (tab3, validateModel) honours cfg.resilience too. */
TEST_F(MeasureResilienceTest, CharacterizeHonoursResilienceConfig)
{
    FreqScalingConfig cfg = quickSweep();
    const Characterization clean = characterize("column_store", cfg);

    fault::configure("runner.observe:throw:nth=3");
    cfg.resilience.maxRetries = 2;
    Characterization r;
    ASSERT_NO_THROW(r = characterize("column_store", cfg));
    EXPECT_GT(fault::fireCount("runner.observe"), 0u);
    fault::reset();

    ASSERT_EQ(r.observations.size(), clean.observations.size());
    for (std::size_t i = 0; i < clean.observations.size(); ++i) {
        const model::FitObservation &a = r.observations[i];
        const model::FitObservation &b = clean.observations[i];
        EXPECT_EQ(a.coreGhz, b.coreGhz) << "observation " << i;
        EXPECT_EQ(a.memMtPerSec, b.memMtPerSec) << "observation " << i;
        EXPECT_EQ(a.cpiEff, b.cpiEff) << "observation " << i;
        EXPECT_EQ(a.mpi, b.mpi) << "observation " << i;
        EXPECT_EQ(a.mpCycles, b.mpCycles) << "observation " << i;
        EXPECT_EQ(a.mpki, b.mpki) << "observation " << i;
        EXPECT_EQ(a.wbr, b.wbr) << "observation " << i;
        EXPECT_EQ(a.instructions, b.instructions) << "observation " << i;
    }
    EXPECT_EQ(r.model.params.cpiCache, clean.model.params.cpiCache);
    EXPECT_EQ(r.model.params.bf, clean.model.params.bf);
}

/** The strict default rethrows the job's own exception, no manifest. */
TEST_F(MeasureResilienceTest, StrictSweepsRethrowTheOriginalFault)
{
    const std::vector<std::string> ids = {"column_store"};
    FailureManifest manifest;
    fault::configure("runner.observe:throw:nth=2");
    EXPECT_THROW(characterizeMany(ids, quickSweep(), &manifest),
                 fault::FaultInjected);
    EXPECT_TRUE(manifest.empty());

    fault::configure("loaded_latency.point:throw:nth=2");
    EXPECT_THROW(sweepLoadedLatency(quickMlc(), &manifest),
                 fault::FaultInjected);
    EXPECT_TRUE(manifest.empty());

    fault::configure("timeseries.capture:throw:nth=1");
    TimeSeriesConfig ts;
    ts.run.workloadId = "column_store";
    ts.run.cores = 2;
    ts.run.warmup = nsToPicos(20'000.0);
    ts.run.adaptiveWarmup = false;
    ts.interval = nsToPicos(20'000.0);
    ts.samples = 2;
    EXPECT_THROW(captureTimeSeriesBatch({ts, ts}, 2, {}, &manifest),
                 fault::FaultInjected);
    EXPECT_TRUE(manifest.empty());
}

/** With a knob set, the same faults are quarantined, not rethrown. */
TEST_F(MeasureResilienceTest, QuarantinedLoadedLatencyPointsLeaveTheCurve)
{
    const LoadedLatencyCurve clean = sweepLoadedLatency(quickMlc());

    LoadedLatencySetup setup = quickMlc();
    setup.jobs = 1; // nth counts hits in order: point 1 fails
    setup.resilience.jobTimeoutMs = 1e9;
    fault::configure("loaded_latency.point:throw:nth=2");
    FailureManifest manifest;
    const LoadedLatencyCurve r = sweepLoadedLatency(setup, &manifest);
    fault::reset();

    ASSERT_EQ(manifest.failures.size(), 1u);
    EXPECT_EQ(manifest.failures[0].jobIndex, 1u);
    EXPECT_EQ(manifest.failures[0].errorType, "FaultInjected");
    EXPECT_NE(manifest.failures[0].context.find("delay=64"),
              std::string::npos)
        << manifest.failures[0].context;
    ASSERT_EQ(r.points.size(), 2u);
    EXPECT_EQ(r.points[0].latencyNs, clean.points[0].latencyNs);
    EXPECT_EQ(r.points[1].latencyNs, clean.points[2].latencyNs);
}

} // anonymous namespace
} // namespace memsense::measure
