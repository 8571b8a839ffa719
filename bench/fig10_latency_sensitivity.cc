/**
 * @file
 * Fig. 10 reproduction: CPI increase vs. compulsory memory latency
 * (10 ns steps from the 75 ns baseline) for the three classes.
 *
 * Paper claims reproduced: enterprise shows the most latency
 * sensitivity, big data follows, and HPC shows none at all — it is
 * bandwidth bound at every latency point modeled ("it is possible
 * that increased latency can eventually make a bandwidth-bound
 * workload become memory bound, but this does not occur in our
 * example").
 */

#include "model_common.hh"
#include "model/sensitivity.hh"

using namespace memsense;
using namespace memsense::bench;

int
main(int argc, char **argv)
{
    const BenchSpec spec{.declare = addMeasuredFlag};
    return benchMain(argc, argv, [](const BenchArgs &args) {
        header("Figure 10",
               "CPI increase vs. compulsory latency (+10 ns steps), by "
               "class");

        model::Platform base = model::Platform::paperBaseline();
        model::SensitivityAnalyzer an(makeSolver(args), base);

        for (const auto &p : classMixes()) {
            auto sweep = an.latencySweep(p, 60.0, 10.0);
            std::cout << "\n-- " << p.name << " --\n";
            Table t({"compulsory (ns)", "loaded MP (ns)", "CPI",
                     "CPI increase", "BW bound"});
            std::vector<std::vector<double>> csv;
            for (const auto &pt : sweep) {
                t.addRow({formatDouble(pt.compulsoryNs, 0),
                          formatDouble(pt.op.missPenaltyNs, 1),
                          formatDouble(pt.op.cpiEff, 3),
                          formatPercent(pt.cpiIncreaseFrac, 1),
                          pt.op.bandwidthBound ? "yes" : "no"});
                csv.push_back({pt.compulsoryNs, pt.op.missPenaltyNs,
                               pt.op.cpiEff, pt.cpiIncreaseFrac,
                               pt.op.bandwidthBound ? 1.0 : 0.0});
            }
            t.print(std::cout);
            csvBlock("fig10_" + p.name,
                     {"compulsory_ns", "mp_ns", "cpi", "cpi_increase",
                      "bw_bound"},
                     csv);
        }
    }, spec);
}
