/**
 * @file
 * Fig. 1 reproduction: trends in CPU and DRAM scaling.
 *
 * The paper's motivation figure — industry trend data showing server
 * core counts outgrowing DRAM density and per-channel bandwidth while
 * latency stays flat. Generated from the growth rates the paper cites
 * (cores +33-50%/yr) rather than measured; see DESIGN.md.
 */

#include "bench_common.hh"
#include "model/trends.hh"

using namespace memsense;
using namespace memsense::bench;

int
main(int argc, char **argv)
{
    return benchMain(argc, argv, [](const BenchArgs &) {
        header("Figure 1", "Trends in CPU and DRAM scaling (normalized to "
                           "the base year)");

        auto series = model::scalingTrends(2012, 9);

        Table t({"year", "cores (rel)", "DRAM density (rel)",
                 "channel BW (rel)", "latency (rel)", "compute/capacity gap"});
        std::vector<std::vector<double>> csv;
        for (const auto &p : series) {
            t.addRow({std::to_string(p.year),
                      formatDouble(p.relativeCores, 2),
                      formatDouble(p.relativeDramDensity, 2),
                      formatDouble(p.relativeChannelBw, 2),
                      formatDouble(p.relativeLatency, 2),
                      formatDouble(p.computeToCapacityGap, 2)});
            csv.push_back({static_cast<double>(p.year), p.relativeCores,
                           p.relativeDramDensity, p.relativeChannelBw,
                           p.relativeLatency, p.computeToCapacityGap});
        }
        t.setFootnote("\nPaper claim: the compute-to-capacity gap widens "
                      "every year; reproduced when the last column is "
                      "strictly increasing.");
        t.print(std::cout);
        csvBlock("fig01", {"year", "cores", "density", "channel_bw",
                           "latency", "gap"}, csv);
    });
}
