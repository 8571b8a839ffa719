#include "measure/timeseries.hh"

#include <optional>

#include "measure/checkpoint.hh"
#include "measure/parallel.hh"
#include "stats/summary.hh"
#include "util/error.hh"
#include "util/fault_injection.hh"
#include "util/log.hh"
#include "util/string_util.hh"

namespace memsense::measure
{

namespace
{

/**
 * Bit-exact checkpoint codec for a TimeSeries: the workload id, then
 * the flattened samples (7 doubles each).
 */
CheckpointCodec<TimeSeries>
timeSeriesCodec()
{
    CheckpointCodec<TimeSeries> codec;
    codec.encode = [](const TimeSeries &ts) {
        std::vector<double> flat;
        flat.reserve(ts.samples.size() * 7);
        for (const auto &s : ts.samples) {
            flat.push_back(s.timeMs);
            flat.push_back(s.cpuUtilization);
            flat.push_back(s.cpi);
            flat.push_back(s.bandwidthGBps);
            flat.push_back(s.ioGBps);
            flat.push_back(s.mpki);
            flat.push_back(s.missPenaltyNs);
        }
        return ts.workloadId + " " + encodeDoubles(flat);
    };
    codec.decode =
        [](const std::string &payload) -> std::optional<TimeSeries> {
        const std::size_t sep = payload.find(' ');
        if (sep == std::string::npos || sep == 0)
            return std::nullopt;
        std::optional<std::vector<double>> decoded =
            decodeDoubles(payload.substr(sep + 1));
        if (!decoded || decoded->empty() || decoded->size() % 7 != 0)
            return std::nullopt;
        const std::vector<double> &flat = *decoded;
        TimeSeries ts;
        ts.workloadId = payload.substr(0, sep);
        for (std::size_t i = 0; i < flat.size(); i += 7) {
            IntervalSample s;
            s.timeMs = flat[i];
            s.cpuUtilization = flat[i + 1];
            s.cpi = flat[i + 2];
            s.bandwidthGBps = flat[i + 3];
            s.ioGBps = flat[i + 4];
            s.mpki = flat[i + 5];
            s.missPenaltyNs = flat[i + 6];
            ts.samples.push_back(s);
        }
        return ts;
    };
    return codec;
}

/** Stable identity of one batch for checkpoint-journal validation. */
std::string
timeSeriesRunKey(const std::vector<TimeSeriesConfig> &cfgs)
{
    std::string desc = "timeseries";
    for (const auto &cfg : cfgs)
        desc += strformat(
            " %s:ghz=%.6g:mt=%.6g:cores=%d:seed=%llu:int=%lld:n=%d",
            cfg.run.workloadId.c_str(), cfg.run.ghz, cfg.run.memMtPerSec,
            cfg.run.cores, static_cast<unsigned long long>(cfg.run.seed),
            static_cast<long long>(cfg.interval), cfg.samples);
    return checkpointRunKey(desc);
}

} // anonymous namespace

double
TimeSeries::meanCpi() const
{
    stats::RunningStats s;
    for (const auto &x : samples)
        s.add(x.cpi);
    return s.mean();
}

double
TimeSeries::cpiCv() const
{
    stats::RunningStats s;
    for (const auto &x : samples)
        s.add(x.cpi);
    return s.cv();
}

double
TimeSeries::meanBandwidthGBps() const
{
    stats::RunningStats s;
    for (const auto &x : samples)
        s.add(x.bandwidthGBps);
    return s.mean();
}

double
TimeSeries::meanCpuUtilization() const
{
    stats::RunningStats s;
    for (const auto &x : samples)
        s.add(x.cpuUtilization);
    return s.mean();
}

TimeSeries
captureTimeSeries(const TimeSeriesConfig &cfg)
{
    requireConfig(cfg.samples >= 1, "need at least one sample");
    requireConfig(cfg.interval > 0, "interval must be positive");

    MS_FAULT_POINT("timeseries.capture");
    MS_TRACE_SPAN("timeseries.capture");
    MS_METRIC_COUNT("timeseries.captures");
    WorkloadRun run(cfg.run);
    run.warmup();

    TimeSeries ts;
    ts.workloadId = cfg.run.workloadId;
    double t_ms = 0.0;
    for (int i = 0; i < cfg.samples; ++i) {
        sim::MachineSnapshot d = run.sampleInterval(cfg.interval);
        t_ms += picosToNs(cfg.interval) / 1e6;

        IntervalSample s;
        s.timeMs = t_ms;
        s.cpuUtilization = d.cpuUtilization();
        s.cpi = d.cpi(cfg.run.ghz);
        s.bandwidthGBps = d.dramBandwidth() / 1e9;
        double seconds = static_cast<double>(cfg.interval) * 1e-12;
        s.ioGBps = d.ioBytes / seconds / 1e9;
        s.mpki = d.mpki();
        s.missPenaltyNs = d.avgMissPenaltyNs();
        ts.samples.push_back(s);
    }
    return ts;
}

std::vector<TimeSeries>
captureTimeSeriesBatch(const std::vector<TimeSeriesConfig> &cfgs, int jobs,
                       const ResilienceConfig &resilience,
                       FailureManifest *manifest)
{
    ParallelExecutor exec(jobs);
    std::vector<JobResult<TimeSeries>> settled = runSweep(
        exec, cfgs,
        [](const TimeSeriesConfig &cfg) {
            LogScope scope(cfg.run.workloadId);
            return captureTimeSeries(cfg);
        },
        resilience, timeSeriesRunKey(cfgs), timeSeriesCodec());

    std::vector<TimeSeries> out;
    out.reserve(settled.size());
    for (std::size_t i = 0; i < settled.size(); ++i) {
        if (settled[i].ok()) {
            out.push_back(std::move(*settled[i].value));
            continue;
        }
        quarantine(manifest, settled[i],
                   strformat("%s ghz=%.4g mt=%.6g",
                             cfgs[i].run.workloadId.c_str(),
                             cfgs[i].run.ghz, cfgs[i].run.memMtPerSec));
    }
    if (out.size() < settled.size())
        warn(strformat("%zu of %zu captures quarantined",
                       settled.size() - out.size(), settled.size()));
    return out;
}

} // namespace memsense::measure

