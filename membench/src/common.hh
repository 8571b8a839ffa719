/**
 * @file
 * What every workload runner shares: its arguments, its result, the
 * counter snapshots of a traced run, and the cross-run check of exact
 * counts.
 */

#ifndef MEMBENCH_COMMON_HH
#define MEMBENCH_COMMON_HH

#include <cstdint>
#include <map>
#include <string>

#include "harness.hh"

namespace membench
{

/** Validated command-line arguments of one benchmark run. */
struct RunArgs
{
    std::string workload;
    std::uint64_t seed = 1;
    int seconds = 30;
    bool trace = false;
    std::string traceOut;  ///< Chrome trace destination (traced runs)
    std::string stateDir;  ///< where exact counts persist across runs
};

/** The seed whose sweep outputs are checked against tests/golden. */
constexpr std::uint64_t kGoldenSeed = 1;

/** Worker threads of the sweeps and of the server. */
constexpr int kJobs = 2;

/** Outcome of one workload run. */
struct RunResult
{
    Checks checks;
    Metrics metrics;
    /** Deterministic per-layer counts of a traced run; they must
     *  repeat exactly at the same seed. */
    std::map<std::string, std::uint64_t> exactCounts;
};

/**
 * Arms the program's MS_TRACE_SPAN / MS_METRIC_* sites for its
 * lifetime and writes the Chrome trace to @p path when it ends.
 */
class TraceSession
{
  public:
    explicit TraceSession(const std::string &path);
    ~TraceSession();

    TraceSession(const TraceSession &) = delete;
    TraceSession &operator=(const TraceSession &) = delete;
};

/** Program counters (MS_METRIC_COUNT) accumulated since construction. */
class CounterDelta
{
  public:
    CounterDelta();

    /** Growth of counter @p name since construction. */
    std::uint64_t get(const std::string &name) const;

  private:
    std::map<std::string, std::uint64_t> base;
};

/** Total span time of program site @p site so far, in seconds. */
double spanSeconds(const std::string &site);

/**
 * Compare @p counts with those a previous traced run of the same
 * workload, seed and binary stored under args.stateDir; store them
 * when there are none. A mismatch fails one operation.
 */
void checkExactCounts(const RunArgs &args,
                      const std::map<std::string, std::uint64_t> &counts,
                      Checks &checks);

} // namespace membench

#endif // MEMBENCH_COMMON_HH
