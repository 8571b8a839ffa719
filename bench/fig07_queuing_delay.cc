/**
 * @file
 * Fig. 7 reproduction: memory channel queuing delay vs. bandwidth
 * utilization, measured with the MLC clone on the simulator for the
 * paper's four test cases ({DDR3-1333, DDR3-1867} x {100% reads,
 * 2:1 read/write}), plus the composite curve the model uses.
 *
 * Paper claims reproduced: once bandwidth is normalized to each
 * configuration's achievable maximum, the four queuing-delay curves
 * nearly coincide below ~95% utilization, justifying one composite
 * curve; the delay grows sharply as utilization approaches the
 * stable limit.
 */

#include "bench_common.hh"
#include "measure/loaded_latency.hh"

using namespace memsense;
using namespace memsense::bench;

int
main(int argc, char **argv)
{
    return benchMain(argc, argv, [](const BenchArgs &args) {
        header("Figure 7",
               "Queuing delay vs. bandwidth utilization (MLC clone: 1 "
               "latency probe + 7 bandwidth generators)");

        auto setups = measure::paperFig7Setups();
        std::size_t total_points = 0;
        for (auto &s : setups) {
            s.jobs = args.jobs;
            if (args.fast) {
                s.delayCycles = {0, 8, 24, 48, 96, 256, 1024, 2048};
                s.measure = nsToPicos(200'000.0);
            }
            s.resilience = args.resilience;
            total_points += s.delayCycles.size();
        }

        measure::FailureManifest manifest;
        std::vector<stats::PiecewiseCurve> curves;
        measure::PhaseTimer phase("sweep");
        for (const measure::LoadedLatencyCurve &c :
             measure::sweepLoadedLatencyFamily(setups, &manifest)) {
            const measure::LoadedLatencySetup &setup = c.setup;
            std::cout << strformat(
                "\n-- DDR3-%.0f, %.0f%% reads: unloaded %.1f ns, "
                "achievable %.1f GB/s --\n",
                setup.memMtPerSec, setup.readFraction * 100.0, c.unloadedNs,
                c.maxBandwidthGBps);
            Table t({"inj. delay (cyc)", "BW (GB/s)", "utilization",
                     "loaded latency (ns)", "queuing delay (ns)"});
            std::vector<std::vector<double>> csv;
            for (const auto &p : c.points) {
                double util = p.bandwidthGBps / c.maxBandwidthGBps;
                t.addRow({std::to_string(p.delayCycles),
                          formatDouble(p.bandwidthGBps, 2),
                          formatPercent(util, 1),
                          formatDouble(p.latencyNs, 1),
                          formatDouble(p.latencyNs - c.unloadedNs, 1)});
                csv.push_back({static_cast<double>(p.delayCycles),
                               p.bandwidthGBps, util, p.latencyNs,
                               p.latencyNs - c.unloadedNs});
            }
            t.print(std::cout);
            csvBlock(strformat("fig07_ddr%.0f_r%.0f", setup.memMtPerSec,
                               setup.readFraction * 100.0),
                     {"delay_cyc", "bw_gbps", "util", "latency_ns",
                      "queuing_ns"},
                     csv);
            curves.push_back(stats::PiecewiseCurve::fromSamples(
                                 c.toQueuingSamples(), 16)
                                 .monotoneEnvelope());
        }

        // Composite (the paper averages the four curves into one model).
        stats::PiecewiseCurve composite =
            stats::PiecewiseCurve::composite(curves, 16).monotoneEnvelope();
        std::cout << "\n-- Composite queuing model (average of the four "
                     "normalized curves) --\n";
        Table t({"utilization", "queuing delay (ns)"});
        std::vector<std::vector<double>> csv;
        for (std::size_t i = 0; i < composite.size(); ++i) {
            const auto &k = composite.knot(i);
            t.addRow({formatPercent(k.x, 1), formatDouble(k.y, 1)});
            csv.push_back({k.x, k.y});
        }
        t.setFootnote("\nPaper claim: the per-configuration curves are "
                      "\"very similar despite the read/write mix and DDR "
                      "speed changes\" up to ~95% utilization — compare "
                      "the queuing-delay columns across the four blocks "
                      "above at matched utilization.");
        t.print(std::cout);
        csvBlock("fig07_composite", {"util", "queuing_ns"}, csv);
        reportFailures("fig07", manifest, total_points);
    });
}
