/**
 * @file
 * Interval-sampled workload characterization (paper Figs 2, 4, 5).
 *
 * Runs a workload and samples the machine counters at a fixed interval
 * (the paper sampled at ~100 ms on hardware; the simulator uses a
 * proportionally scaled virtual interval), producing the CPU
 * utilization / CPI / memory bandwidth time series the paper plots
 * for each workload.
 */

#ifndef MEMSENSE_MEASURE_TIMESERIES_HH
#define MEMSENSE_MEASURE_TIMESERIES_HH

#include <string>
#include <vector>

#include "measure/resilience.hh"
#include "measure/runner.hh"

namespace memsense::measure
{

/** One interval sample (one x position of Figs 2/4/5). */
struct IntervalSample
{
    double timeMs = 0.0;       ///< end of interval, virtual ms
    double cpuUtilization = 0.0; ///< non-halted fraction
    double cpi = 0.0;          ///< effective CPI of the interval
    double bandwidthGBps = 0.0;///< DRAM read+write traffic
    double ioGBps = 0.0;       ///< injected DMA traffic
    double mpki = 0.0;         ///< misses per kilo-instruction
    double missPenaltyNs = 0.0;///< average loaded latency
};

/** Time-series capture settings. */
struct TimeSeriesConfig
{
    RunConfig run;                ///< machine + workload settings
    Picos interval = nsToPicos(100'000.0); ///< sampling granularity
    int samples = 50;             ///< intervals to record
};

/** Captured series for one workload. */
struct TimeSeries
{
    std::string workloadId;
    std::vector<IntervalSample> samples;

    /** Mean CPI across samples. */
    double meanCpi() const;

    /** Coefficient of variation of CPI (phase variability). */
    double cpiCv() const;

    /** Mean bandwidth in GB/s. */
    double meanBandwidthGBps() const;

    /** Mean CPU utilization. */
    double meanCpuUtilization() const;
};

/** Run and sample one workload. */
TimeSeries captureTimeSeries(const TimeSeriesConfig &cfg);

/**
 * Capture several series on the parallel experiment engine: workloads
 * run concurrently on up to @p jobs workers, but each series is
 * sampled serially on its own machine (interval deltas are inherently
 * ordered). Results come back in input order, identical to running
 * captureTimeSeries() in a loop.
 *
 * With @p resilience at its strict default, a failing capture's
 * original exception is rethrown. With any resilience knob set,
 * failing captures are retried and then quarantined into @p manifest
 * (when non-null) and left out of the result; completed series stream
 * to resilience.checkpointPath (when set) for resume.
 *
 * @param cfgs one entry per series
 * @param jobs worker threads; 1 = serial, <= 0 = hardware threads
 */
std::vector<TimeSeries>
captureTimeSeriesBatch(const std::vector<TimeSeriesConfig> &cfgs,
                       int jobs = 1, const ResilienceConfig &resilience = {},
                       FailureManifest *manifest = nullptr);

} // namespace memsense::measure

#endif // MEMSENSE_MEASURE_TIMESERIES_HH
