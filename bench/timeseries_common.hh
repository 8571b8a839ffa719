/**
 * @file
 * Shared driver for the Figs 2/4/5 time-series characterization
 * benches: runs each workload of one class on the simulator, samples
 * counters at a fixed interval, and prints the utilization / CPI /
 * bandwidth series the paper plots.
 */

#ifndef MEMSENSE_BENCH_TIMESERIES_COMMON_HH
#define MEMSENSE_BENCH_TIMESERIES_COMMON_HH

#include <string>
#include <vector>

#include "bench_common.hh"
#include "measure/timeseries.hh"
#include "workloads/factory.hh"

namespace memsense::bench
{

/**
 * Run and print the time series of the given workloads. Series run
 * concurrently on `--jobs` workers (each serially sampled on its own
 * machine) and print in input order. With any fault-tolerance flag
 * set, failed captures are retried and then quarantined — the
 * surviving series still print, and the failures are reported via
 * reportFailures().
 */
inline void
runTimeSeries(const std::string &exp_id,
              const std::vector<std::string> &ids, const BenchArgs &args)
{
    std::vector<measure::TimeSeriesConfig> cfgs;
    cfgs.reserve(ids.size());
    for (const auto &id : ids) {
        const auto &info = workloads::workloadInfo(id);
        measure::TimeSeriesConfig cfg;
        cfg.run.workloadId = id;
        cfg.run.cores = info.characterizationCores;
        cfg.run.warmup = nsToPicos(args.fast ? 1'000'000.0 : 4'000'000.0);
        cfg.run.adaptiveWarmup = !args.fast;
        cfg.interval = nsToPicos(100'000.0); // "100 ms" scaled down
        cfg.samples = args.fast ? 20 : 40;
        cfgs.push_back(cfg);
    }

    measure::PhaseTimer phase("sweep");
    measure::FailureManifest manifest;
    const std::vector<measure::TimeSeries> series =
        measure::captureTimeSeriesBatch(cfgs, args.jobs, args.resilience,
                                        &manifest);
    reportFailures(exp_id, manifest, cfgs.size());

    // Index by the series' own workload id: with quarantined captures
    // the surviving list can be shorter than ids.
    for (std::size_t w = 0; w < series.size(); ++w) {
        const measure::TimeSeries &ts = series[w];
        const auto &info = workloads::workloadInfo(ts.workloadId);

        std::cout << "\n-- " << info.display << " ("
                  << info.characterizationCores << " cores) --\n";
        Table t({"t (ms)", "CPU util", "CPI", "DRAM BW (GB/s)",
                 "I/O (GB/s)", "MPKI", "MP (ns)"});
        std::vector<std::vector<double>> csv;
        for (const auto &s : ts.samples) {
            t.addRow({formatDouble(s.timeMs, 2),
                      formatPercent(s.cpuUtilization, 0),
                      formatDouble(s.cpi, 2),
                      formatDouble(s.bandwidthGBps, 2),
                      formatDouble(s.ioGBps, 2),
                      formatDouble(s.mpki, 1),
                      formatDouble(s.missPenaltyNs, 1)});
            csv.push_back({s.timeMs, s.cpuUtilization, s.cpi,
                           s.bandwidthGBps, s.ioGBps, s.mpki,
                           s.missPenaltyNs});
        }
        t.setFootnote(strformat(
            "means: util %.0f%%, CPI %.2f (cv %.2f), BW %.2f GB/s",
            ts.meanCpuUtilization() * 100.0, ts.meanCpi(), ts.cpiCv(),
            ts.meanBandwidthGBps()));
        t.print(std::cout);
        csvBlock(exp_id + "_" + ts.workloadId,
                 {"t_ms", "cpu_util", "cpi", "bw_gbps", "io_gbps",
                  "mpki", "mp_ns"},
                 csv);
    }
}

} // namespace memsense::bench

#endif // MEMSENSE_BENCH_TIMESERIES_COMMON_HH
