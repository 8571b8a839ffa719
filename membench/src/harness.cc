#include "harness.hh"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <thread>

namespace membench
{

double
nowSeconds()
{
    using namespace std::chrono;
    return duration<double>(steady_clock::now().time_since_epoch())
        .count();
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::optional<double>
quantileNearestRank(std::vector<double> samples, double p)
{
    if (samples.empty())
        return std::nullopt;
    std::sort(samples.begin(), samples.end());
    const double n = static_cast<double>(samples.size());
    const double rank = std::ceil(std::clamp(p, 0.0, 1.0) * n);
    const std::size_t idx =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return samples[std::min(idx, samples.size() - 1)];
}

double
medianOf(const std::vector<double> &samples)
{
    std::optional<double> m = quantileNearestRank(samples, 0.5);
    if (!m)
        throw std::logic_error("median of no samples");
    return *m;
}

bool
validMetricName(std::string_view name)
{
    if (name.empty() || name.size() > 64)
        return false;
    auto alnum = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9');
    };
    if (!alnum(name.front()))
        return false;
    return std::all_of(name.begin(), name.end(), [&](char c) {
        return alnum(c) || c == '_' || c == '.' || c == '-';
    });
}

void
Metrics::add(const std::string &name, double value,
             const std::string &unit)
{
    if (!validMetricName(name))
        throw std::invalid_argument("bad metric name '" + name + "'");
    if (unit.empty())
        throw std::invalid_argument("metric " + name + " has no unit");
    if (!std::isfinite(value))
        throw std::invalid_argument("metric " + name + " is not finite");
    for (const Entry &e : entries)
        if (e.name == name)
            throw std::invalid_argument("metric " + name + " added twice");
    entries.push_back({name, value, unit});
}

std::string
Metrics::json() const
{
    std::string out = "{";
    char buf[64];
    for (std::size_t i = 0; i < entries.size(); ++i) {
        std::snprintf(buf, sizeof buf, "%.17g", entries[i].value);
        out += (i ? ", \"" : "\"") + entries[i].name + "\": {\"value\": " +
               buf + ", \"unit\": \"" + entries[i].unit + "\"}";
    }
    return out + "}";
}

std::string
Metrics::text() const
{
    std::string out;
    char buf[160];
    for (const Entry &e : entries) {
        std::snprintf(buf, sizeof buf, "  %-32s %.6g %s\n", e.name.c_str(),
                      e.value, e.unit.c_str());
        out += buf;
    }
    return out;
}

void
Checks::fail(std::uint64_t ops, const std::string &why)
{
    attemptedOps += ops;
    failedOps += ops;
    std::fprintf(stderr, "membench: check failed (%llu ops): %s\n",
                 static_cast<unsigned long long>(ops), why.c_str());
}

double
Checks::errorRate() const
{
    return attemptedOps == 0 ? 0.0
                             : static_cast<double>(failedOps) /
                                   static_cast<double>(attemptedOps);
}

std::string
resultLine(const Checks &checks, const Metrics &metrics)
{
    const bool correct = checks.failed() == 0 && checks.attempted() > 0;
    return std::string("{\"correct\": ") + (correct ? "true" : "false") +
           ", \"attempted\": " + std::to_string(checks.attempted()) +
           ", \"failed\": " + std::to_string(checks.failed()) +
           ", \"metrics\": " + metrics.json() + "}";
}

OpenLoopSchedule::OpenLoopSchedule(double start_s, double rate_per_s)
    : start(start_s), rate(rate_per_s)
{
    if (!(rate_per_s > 0.0) || !std::isfinite(rate_per_s))
        throw std::invalid_argument("open-loop rate must be positive");
}

double
OpenLoopSchedule::dueAt(std::uint64_t i) const
{
    return start + static_cast<double>(i) / rate;
}

double
paceOpenLoop(const OpenLoopSchedule &schedule, std::uint64_t first,
             std::uint64_t stride, std::uint64_t count,
             const PacingClock &clock,
             const std::function<void(std::uint64_t)> &send)
{
    double late_max = 0.0;
    for (std::uint64_t k = 0; k < count; ++k) {
        const std::uint64_t i = first + k * stride;
        const double due = schedule.dueAt(i);
        if (clock.now() < due)
            clock.sleepUntil(due);
        late_max = std::max(late_max, clock.now() - due);
        send(i);
    }
    return late_max;
}

PacingClock
realPacingClock()
{
    PacingClock c;
    c.now = nowSeconds;
    c.sleepUntil = [](double t) {
        using namespace std::chrono;
        std::this_thread::sleep_until(
            steady_clock::time_point(duration_cast<steady_clock::duration>(
                duration<double>(t))));
    };
    return c;
}

} // namespace membench
