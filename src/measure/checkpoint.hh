/**
 * @file
 * Sweep checkpointing: append-only result journal + resume.
 *
 * A checkpointed sweep streams every settled job to a journal file as
 * it completes; an interrupted run can then resume from the journal
 * and re-run only the missing or failed jobs, producing results
 * bit-identical to an uninterrupted run for any worker count.
 *
 * Journal format (one record per line, crash-tolerant):
 *
 *     memsense-ckpt v1 key=<runKey>
 *     R <index> ok <payload> #<fnv64hex>
 *     R <index> fail <errorType> #<fnv64hex>
 *
 * The header key fingerprints the sweep (grid shape, seeds, workload
 * set); resuming against a journal whose key differs is a ConfigError,
 * not a silent wrong answer. Each record carries an FNV-1a checksum of
 * its own content, and loading skips any line that is torn, corrupt,
 * or out of range — a crash mid-append therefore costs at most the one
 * record being written. Doubles in payloads are encoded as raw IEEE-754
 * bit patterns (hex), so a restored value is the value, bit for bit.
 */

#ifndef MEMSENSE_MEASURE_CHECKPOINT_HH
#define MEMSENSE_MEASURE_CHECKPOINT_HH

#include <cstdint>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "measure/parallel.hh"
#include "measure/resilience.hh"
#include "util/log.hh"

namespace memsense::measure
{

/** Bit-exact doubles -> space-separated hex words (IEEE-754 bits). */
std::string encodeDoubles(const std::vector<double> &values);

/** Inverse of encodeDoubles(); nullopt on any malformed word. */
std::optional<std::vector<double>> decodeDoubles(const std::string &text);

/** Serialize/deserialize one job result for the journal. */
template <typename T>
struct CheckpointCodec
{
    /** Encode to a single line (must not contain '\n' or '#'). */
    std::function<std::string(const T &)> encode;
    /** Decode; nullopt rejects the record (job re-runs instead). */
    std::function<std::optional<T>(const std::string &)> decode;
};

/** Append-only, crash-tolerant journal of settled sweep jobs. */
class CheckpointJournal
{
  public:
    /** One parsed journal record. */
    struct Record
    {
        std::size_t index = 0;  ///< job input-order index
        bool ok = false;        ///< value record vs quarantine record
        std::string payload;    ///< codec output / error type
    };

    /**
     * Open @p path for appending, creating it (with a header naming
     * @p run_key) when absent. Existing valid records are loaded and
     * available via restored(); a header key mismatch throws
     * ConfigError.
     */
    CheckpointJournal(const std::string &path, const std::string &run_key);

    /**
     * Valid records found at open, deduplicated by index (last record
     * wins, so a re-run may supersede an earlier quarantine).
     */
    const std::map<std::size_t, Record> &restored() const
    {
        return loaded;
    }

    /** Append one settled record and flush it. Thread-safe. */
    void append(std::size_t index, bool ok, const std::string &payload);

    const std::string &path() const { return journalPath; }

  private:
    std::string journalPath;
    std::map<std::size_t, Record> loaded;
    std::mutex mtx;
    std::ofstream out;
};

/**
 * Stable fingerprint of a sweep for the journal header: hashes the
 * caller-supplied descriptor (workload ids, grid shape, seeds, ...).
 */
std::string checkpointRunKey(const std::string &descriptor);

/**
 * Checkpointed resilient map: like mapOrderedResilient(), plus every
 * settled job is streamed to the journal at @p journal_path, and jobs
 * already settled successfully in a previous run are restored instead
 * of re-run (their JobResult reports attempts == 0). Failed or missing
 * jobs re-run with their original retry streams, so the merged result
 * vector is bit-identical to an uninterrupted sweep.
 *
 * With an empty @p journal_path this is exactly mapOrderedResilient().
 */
template <typename Job, typename Fn>
auto
mapOrderedResilientCheckpointed(
    const ParallelExecutor &exec, const std::vector<Job> &inputs, Fn fn,
    const ResilienceOptions &opts, const std::string &journal_path,
    const std::string &run_key,
    const CheckpointCodec<std::invoke_result_t<Fn, const Job &>> &codec)
    -> std::vector<JobResult<std::invoke_result_t<Fn, const Job &>>>
{
    using Result = std::invoke_result_t<Fn, const Job &>;
    if (journal_path.empty())
        return exec.mapOrderedResilient(inputs, fn, opts);

    CheckpointJournal journal(journal_path, run_key);

    std::vector<JobResult<Result>> results(inputs.size());
    std::vector<bool> restored(inputs.size(), false);
    {
        MS_TRACE_SPAN("checkpoint.replay");
        for (const auto &[index, record] : journal.restored()) {
            if (index >= inputs.size() || !record.ok)
                continue;
            std::optional<Result> value = codec.decode(record.payload);
            if (!value)
                continue; // undecodable record: treat as missing, re-run
            results[index].value = std::move(value);
            results[index].attempts = 0;
            restored[index] = true;
            MS_METRIC_COUNT("checkpoint.jobs_restored");
        }
    }

    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        if (!restored[i])
            pending.push_back(i);
    }

    auto by_index = [&inputs, &fn](std::size_t i) {
        return fn(inputs[i]);
    };
    auto stream_record = [&journal, &codec](std::size_t index,
                                            const JobResult<Result> &r) {
        try {
            if (r.ok())
                journal.append(index, true, codec.encode(*r.value));
            else
                journal.append(index, false, r.failure->errorType);
        } catch (const std::exception &e) {
            // A journal write failure must not fail the job: the sweep
            // still completes, it just loses resumability for this
            // record.
            warn(std::string("checkpoint append failed: ") + e.what());
        }
    };
    std::vector<JobResult<Result>> fresh =
        exec.mapIndicesResilient<Result>(pending, by_index, opts,
                                         stream_record);
    for (std::size_t k = 0; k < pending.size(); ++k)
        results[pending[k]] = std::move(fresh[k]);
    return results;
}

/**
 * The one sweep policy of measure/: run @p inputs on the checkpointed
 * resilient engine under @p resilience. With no knob set
 * (ResilienceConfig{}: one attempt, no deadline, no journal) the
 * original exception of the lowest-indexed failed job is rethrown once
 * every job has settled; with any knob set, failures come back
 * quarantined in their JobResult for the caller to record. @p run_key
 * and @p codec are used only when a journal is configured.
 */
template <typename Job, typename Fn>
auto
runSweep(const ParallelExecutor &exec, const std::vector<Job> &inputs, Fn fn,
         const ResilienceConfig &resilience, const std::string &run_key,
         const CheckpointCodec<std::invoke_result_t<Fn, const Job &>> &codec)
    -> std::vector<JobResult<std::invoke_result_t<Fn, const Job &>>>
{
    auto settled = mapOrderedResilientCheckpointed(
        exec, inputs, fn, resilience.toOptions(), resilience.checkpointPath,
        run_key, codec);
    if (!resilience.enabled())
        rethrowFirstFailure(settled);
    return settled;
}

} // namespace memsense::measure

#endif // MEMSENSE_MEASURE_CHECKPOINT_HH
