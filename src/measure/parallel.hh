/**
 * @file
 * Deterministic parallel experiment engine.
 *
 * Every sweep in measure/ is a grid of independent, seed-deterministic
 * simulations: each job constructs its own Machine from its own config
 * and seed, so jobs share no mutable state and any execution order
 * yields the same per-job result. The one engine,
 * ParallelExecutor::mapIndicesResilient(), exploits that: it fans the
 * jobs out over a ThreadPool but writes result i to output slot i, so
 * the collected vector is bit-identical to the serial loop regardless
 * of completion order. mapOrdered() and mapOrderedResilient() are thin
 * adapters over it.
 */

#ifndef MEMSENSE_MEASURE_PARALLEL_HH
#define MEMSENSE_MEASURE_PARALLEL_HH

#include <cstddef>
#include <future>
#include <type_traits>
#include <utility>
#include <vector>

#include "measure/resilience.hh"
#include "util/thread_pool.hh"

namespace memsense::measure
{

/**
 * Resolve a user-facing jobs knob: positive counts pass through,
 * 0 or negative means "one worker per hardware thread".
 */
int resolveJobs(int jobs);

/** Maps job vectors to result vectors in deterministic input order. */
class ParallelExecutor
{
  public:
    /**
     * @param jobs worker count; 1 runs jobs inline on the calling
     *             thread (the serial reference path), <= 0 uses the
     *             hardware concurrency.
     */
    explicit ParallelExecutor(int jobs = 1)
        : jobCount(resolveJobs(jobs))
    {}

    /** Effective worker count. */
    int jobs() const { return jobCount; }

    /**
     * Apply @p fn to every element of @p inputs and return the results
     * in input order.
     *
     * fn must be invocable on each element concurrently — in practice,
     * each call builds and owns its own Machine/RNG state. This is the
     * strict adapter over the resilient engine, run with
     * ResilienceConfig{} (one attempt, no deadline, no journal): if any
     * call throws, the original exception of the lowest-indexed
     * failing job is rethrown after all jobs finish (workers are never
     * abandoned mid-simulation).
     */
    template <typename Job, typename Fn>
    auto
    mapOrdered(const std::vector<Job> &inputs, Fn fn) const
        -> std::vector<std::invoke_result_t<Fn, const Job &>>
    {
        auto settled =
            mapOrderedResilient(inputs, fn, ResilienceConfig{}.toOptions());
        rethrowFirstFailure(settled);
        std::vector<std::invoke_result_t<Fn, const Job &>> out;
        out.reserve(settled.size());
        for (auto &r : settled)
            out.push_back(std::move(*r.value));
        return out;
    }

    /**
     * Resilient map: apply @p fn to every input and return one
     * JobResult per input, in input order.
     *
     * A job that throws is retried per @p opts (TransientErrors only,
     * seeded backoff keyed by the job index) and, once fatal, timed
     * out, or out of attempts, quarantined as a FailureRecord instead
     * of aborting the sweep. The call itself never throws on job
     * failure; collect the quarantine set with
     * FailureManifest::collect().
     */
    template <typename Job, typename Fn>
    auto
    mapOrderedResilient(const std::vector<Job> &inputs, Fn fn,
                        const ResilienceOptions &opts = {}) const
        -> std::vector<JobResult<std::invoke_result_t<Fn, const Job &>>>
    {
        std::vector<std::size_t> indices(inputs.size());
        for (std::size_t i = 0; i < indices.size(); ++i)
            indices[i] = i;
        auto by_index = [&inputs, &fn](std::size_t i) {
            return fn(inputs[i]);
        };
        return mapIndicesResilient<decltype(by_index(std::size_t{}))>(
            indices, by_index, opts, [](std::size_t, const auto &) {});
    }

    /**
     * Resilient engine core: run @p fn(index) for each entry of
     * @p indices, returning results ordered like @p indices.
     *
     * The index doubles as the retry-jitter stream, so a checkpoint
     * resume that re-runs a job subset reproduces the uninterrupted
     * run's behaviour exactly. @p on_result fires on the worker thread
     * as soon as each job settles (value or quarantine) with the
     * *original* index — the checkpoint layer streams journal records
     * from it. on_result must be thread-safe for worker counts > 1 and
     * must not throw.
     */
    template <typename Result, typename Fn, typename OnResult>
    std::vector<JobResult<Result>>
    mapIndicesResilient(const std::vector<std::size_t> &indices, Fn fn,
                        const ResilienceOptions &opts,
                        OnResult on_result) const
    {
        opts.retry.validate();
        if (jobCount <= 1 || indices.size() <= 1) {
            std::vector<JobResult<Result>> out;
            out.reserve(indices.size());
            for (std::size_t index : indices) {
                out.push_back(
                    detail::runResilientJob<Result>(fn, index, opts));
                on_result(index, out.back());
            }
            return out;
        }

        int workers = jobCount;
        if (static_cast<std::size_t>(workers) > indices.size())
            workers = static_cast<int>(indices.size());
        ThreadPool pool(workers);
        std::vector<std::future<JobResult<Result>>> futures;
        futures.reserve(indices.size());
        for (std::size_t index : indices) {
            futures.push_back(pool.submit([&fn, &opts, &on_result,
                                           index]() {
                JobResult<Result> r =
                    detail::runResilientJob<Result>(fn, index, opts);
                on_result(index, r);
                return r;
            }));
        }

        std::vector<JobResult<Result>> out;
        out.reserve(indices.size());
        for (auto &fut : futures)
            out.push_back(fut.get());
        return out;
    }

  private:
    int jobCount;
};

} // namespace memsense::measure

#endif // MEMSENSE_MEASURE_PARALLEL_HH
