/**
 * @file
 * Measurement plumbing shared by the benchmark's workloads: quantiles,
 * the open-loop schedule, operation/check accounting, and the metric
 * report that becomes the result line.
 *
 * Nothing here calls into memsense, so the statistics that judge the
 * program do not change when the program does.
 */

#ifndef MEMBENCH_HARNESS_HH
#define MEMBENCH_HARNESS_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace membench
{

/** Seconds on the steady clock since an arbitrary epoch. */
double nowSeconds();

/** Peak resident set size of this process, in MB. */
double peakRssMb();

/**
 * Nearest-rank quantile: for n samples and p in [0, 1], the sample of
 * rank ceil(p * n) clamped to [1, n] in ascending order. No
 * interpolation, so the result is always a measured value. nullopt
 * for an empty sample set, so "no data" never reads as a zero time.
 */
std::optional<double> quantileNearestRank(std::vector<double> samples,
                                          double p);

/** Nearest-rank median; throws std::logic_error on no samples. */
double medianOf(const std::vector<double> &samples);

/**
 * True when @p name may name a metric: 1 to 64 characters from
 * [A-Za-z0-9_.-], starting with a letter or digit.
 */
bool validMetricName(std::string_view name);

/** Ordered metric report (name, value, unit), printed as JSON. */
class Metrics
{
  public:
    /** Add one metric; throws std::invalid_argument on a bad or
     *  repeated name, an empty unit, or a non-finite value. */
    void add(const std::string &name, double value,
             const std::string &unit);

    /** `{"name": {"value": v, "unit": "u"}, ...}` in insertion order. */
    std::string json() const;

    /** One `name = value unit` line per metric, for people. */
    std::string text() const;

  private:
    struct Entry
    {
        std::string name;
        double value = 0.0;
        std::string unit;
    };
    std::vector<Entry> entries;
};

/**
 * Operation accounting behind `attempted`, `failed` and error_rate.
 * An operation is a grid point for the sweeps and a request for the
 * server; a failed output check fails the operations it covers.
 */
class Checks
{
  public:
    /** Count @p ops operations that succeeded. */
    void pass(std::uint64_t ops) { attemptedOps += ops; }

    /** Count @p ops operations that failed, naming why on stderr. */
    void fail(std::uint64_t ops, const std::string &why);

    /** pass() or fail() by @p ok. */
    void
    expect(bool ok, std::uint64_t ops, const std::string &why)
    {
        if (ok)
            pass(ops);
        else
            fail(ops, why);
    }

    std::uint64_t attempted() const { return attemptedOps; }
    std::uint64_t failed() const { return failedOps; }

    /** failed / attempted (0 when nothing was attempted). */
    double errorRate() const;

  private:
    std::uint64_t attemptedOps = 0;
    std::uint64_t failedOps = 0;
};

/** The last stdout line: correct, attempted, failed and metrics. */
std::string resultLine(const Checks &checks, const Metrics &metrics);

/**
 * Fixed-rate open-loop arrival schedule. Request i is due at
 * start + i / rate, whatever happened to earlier requests, and its
 * latency is measured from that due time — so a generator that stalls
 * charges the stall to every request due during it, instead of hiding
 * it by sending them late and timing from the send.
 */
class OpenLoopSchedule
{
  public:
    /** @p rate_per_s must be positive. */
    OpenLoopSchedule(double start_s, double rate_per_s);

    /** When request @p i is due. */
    double dueAt(std::uint64_t i) const;

    /** Latency of request @p i answered at @p reply_s. */
    double
    latencyFromDue(std::uint64_t i, double reply_s) const
    {
        return reply_s - dueAt(i);
    }

  private:
    double start;
    double rate;
};

/** Clock and sleeper of the pacing loop; tests inject fakes. */
struct PacingClock
{
    std::function<double()> now;              ///< seconds
    std::function<void(double)> sleepUntil;   ///< absolute seconds
};

/**
 * Send requests first, first + stride, ... (count of them) at their
 * due times: sleep until a request is due, never wait for replies.
 * Returns the largest lateness (send time - due time) in seconds.
 */
double paceOpenLoop(const OpenLoopSchedule &schedule, std::uint64_t first,
                    std::uint64_t stride, std::uint64_t count,
                    const PacingClock &clock,
                    const std::function<void(std::uint64_t)> &send);

/** The real steady clock with std::this_thread::sleep_until. */
PacingClock realPacingClock();

} // namespace membench

#endif // MEMBENCH_HARNESS_HH
