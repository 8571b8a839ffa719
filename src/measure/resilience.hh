/**
 * @file
 * Per-job fault tolerance: the core of the one sweep engine.
 *
 * Every measure/ sweep runs its jobs through runResilientJob(), which
 * wraps each job in the retry taxonomy of util/retry.hh and returns a
 * JobResult: either the value, or a FailureRecord describing why the
 * job was quarantined (error type, message, attempts, deadline state)
 * plus the job's original exception. What happens to a failure is the
 * caller's policy, decided once per sweep (measure/checkpoint.hh,
 * runSweep()): the strict default (ResilienceConfig{}: one attempt, no
 * deadline, no journal) rethrows the lowest-indexed failure, while any
 * resilience knob quarantines failures into a machine-readable
 * FailureManifest so one bad grid point cannot discard hours of
 * completed simulations.
 *
 * Determinism: job values do not depend on the policy, and retry
 * backoff is seeded per job index, so for a given fault pattern the
 * outcome vector is independent of worker count and scheduling.
 */

#ifndef MEMSENSE_MEASURE_RESILIENCE_HH
#define MEMSENSE_MEASURE_RESILIENCE_HH

#include <cstddef>
#include <exception>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "util/retry.hh"
#include "util/trace.hh"

namespace memsense::measure
{

/** Why one job was quarantined instead of returning a value. */
struct FailureRecord
{
    std::size_t jobIndex = 0; ///< input-order index of the job
    std::string context;      ///< caller-filled job description
    std::string errorType;    ///< stable tag ("FaultInjected", ...)
    std::string message;      ///< what() of the final error
    int attempts = 0;         ///< attempts made before quarantine
    bool timedOut = false;    ///< deadline exceeded, retries cut short
    bool fatal = false;       ///< classified fatal: never retried
    double elapsedMs = 0.0;   ///< wall clock spent on the job
};

/** Outcome of one resilient job: a value or a quarantined failure. */
template <typename T>
struct JobResult
{
    std::optional<T> value;
    std::optional<FailureRecord> failure;
    /** The failed job's final exception, for strict callers to rethrow. */
    std::exception_ptr error;
    /** Attempts used (0 when the value was restored from a journal). */
    int attempts = 0;

    bool ok() const { return value.has_value(); }
};

/**
 * Machine-readable account of everything a sweep quarantined.
 * An empty manifest means the sweep completed cleanly.
 */
struct FailureManifest
{
    std::vector<FailureRecord> failures;

    bool empty() const { return failures.empty(); }

    /** Collect the failure records out of a JobResult vector. */
    template <typename T>
    static FailureManifest
    collect(const std::vector<JobResult<T>> &results)
    {
        FailureManifest m;
        for (const auto &r : results) {
            if (!r.ok() && r.failure)
                m.failures.push_back(*r.failure);
        }
        return m;
    }

    /** One human line: "3 of 128 jobs quarantined (2 retryable, ...)". */
    std::string summary(std::size_t total_jobs) const;

    /** JSON document for tooling (schema in docs/robustness.md). */
    std::string toJson() const;
};

/**
 * Strict collection: rethrow the original exception of the
 * lowest-indexed failed job in @p results, if any failed.
 */
template <typename T>
void
rethrowFirstFailure(const std::vector<JobResult<T>> &results)
{
    for (const auto &r : results) {
        if (!r.ok())
            std::rethrow_exception(r.error);
    }
}

/**
 * Record the quarantined @p result in @p manifest (when non-null),
 * tagged with @p context.
 */
template <typename T>
void
quarantine(FailureManifest *manifest, const JobResult<T> &result,
           std::string context)
{
    if (!manifest)
        return;
    FailureRecord rec = *result.failure;
    rec.context = std::move(context);
    manifest->failures.push_back(std::move(rec));
}

/**
 * Engine knobs for one resilient sweep.
 *
 * The deadline is cooperative: a job is never killed mid-simulation
 * (that would tear simulator state); instead the elapsed wall clock is
 * checked between attempts, and a job over its deadline is quarantined
 * as timed out instead of being retried further. nowMs/sleepMs are
 * injectable so tests can drive a virtual clock.
 */
struct ResilienceOptions
{
    RetryPolicy retry;          ///< attempt budget + backoff schedule
    double jobTimeoutMs = 0.0;  ///< per-job deadline; 0 = unlimited
    std::function<double()> nowMs;       ///< clock; default steady_clock
    std::function<void(double)> sleepMs; ///< backoff sleeper; default real
};

/**
 * User-facing resilience knobs, as wired through the bench CLI
 * (--max-retries, --job-timeout-ms, --checkpoint).
 */
struct ResilienceConfig
{
    /** Extra attempts after the first; 0 disables retry. */
    int maxRetries = 0;
    /** Cooperative per-job deadline in wall-clock ms; 0 = unlimited. */
    double jobTimeoutMs = 0.0;
    /** Append-only journal path; empty disables checkpointing. */
    std::string checkpointPath;
    /** Seed for the backoff jitter streams. */
    std::uint64_t retrySeed = 0;

    /** True when any knob is set: failures are then quarantined
     *  instead of rethrown. */
    bool enabled() const
    {
        return maxRetries > 0 || jobTimeoutMs > 0.0 ||
               !checkpointPath.empty();
    }

    /** Lower to engine options (retry budget = maxRetries + 1). */
    ResilienceOptions toOptions() const;
};

namespace detail
{

/** Monotonic wall clock in ms (the default ResilienceOptions::nowMs). */
double steadyNowMs();

/**
 * Run one job under the resilience contract. Never throws: every
 * exception ends up classified in the returned JobResult. @p stream
 * is the retry-jitter stream, conventionally the job's input index.
 * One `measure.job` span covers the job, all its attempts included.
 */
template <typename T, typename Fn>
JobResult<T>
runResilientJob(Fn &fn, std::size_t stream, const ResilienceOptions &opts)
{
    auto now_ms = [&opts]() {
        return opts.nowMs ? opts.nowMs() : steadyNowMs();
    };
    MS_TRACE_SPAN("measure.job");
    MS_METRIC_COUNT("measure.jobs_run");
    JobResult<T> out;
    const double start_ms = now_ms();
    std::exception_ptr last_error;
    bool timed_out = false;
    bool fatal = false;
    for (;;) {
        ++out.attempts;
        if (out.attempts > 1)
            MS_METRIC_COUNT("measure.job_retries");
        try {
            out.value.emplace(fn(stream));
            return out;
        } catch (...) {
            last_error = std::current_exception();
        }
        fatal = classifyException(last_error) == ErrorClass::Fatal;
        if (fatal)
            break;
        if (opts.jobTimeoutMs > 0.0 &&
            now_ms() - start_ms >= opts.jobTimeoutMs) {
            timed_out = true;
            break;
        }
        if (out.attempts >= opts.retry.maxAttempts)
            break;
        const double wait_ms =
            opts.retry.delayMs(out.attempts + 1,
                               static_cast<std::uint64_t>(stream));
        if (opts.sleepMs)
            opts.sleepMs(wait_ms);
        else
            sleepForMs(wait_ms);
    }
    MS_METRIC_COUNT("measure.jobs_quarantined");
    if (timed_out)
        MS_METRIC_COUNT("measure.jobs_timed_out");
    const ExceptionInfo info = describeException(last_error);
    FailureRecord rec;
    rec.jobIndex = stream;
    rec.errorType = info.type;
    rec.message = info.message;
    rec.attempts = out.attempts;
    rec.timedOut = timed_out;
    rec.fatal = fatal;
    rec.elapsedMs = now_ms() - start_ms;
    out.failure = std::move(rec);
    out.error = last_error;
    return out;
}

} // namespace detail

} // namespace memsense::measure

#endif // MEMSENSE_MEASURE_RESILIENCE_HH
