/**
 * @file
 * Fig. 9 reproduction: the derivative of Fig. 8 — performance impact
 * (% CPI change per GB/s/core) vs. the available bandwidth per core.
 *
 * Paper claims reproduced: "it is not possible to compute a simple
 * constant rule of thumb" — the impact of losing a GB/s grows sharply
 * as the starting bandwidth shrinks, and HPC's impact dwarfs the
 * other classes at every starting point.
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
        header("Figure 9",
               "Performance impact per GB/s/core vs. available bandwidth "
               "per core (derivative of Fig. 8)");

        model::Platform base = model::Platform::paperBaseline();
        model::SensitivityAnalyzer an(makeSolver(args), base);
        auto variants =
            model::SensitivityAnalyzer::standardBandwidthVariants(base.memory);

        for (const auto &p : classMixes()) {
            auto sweep = an.bandwidthSweep(p, variants);
            auto deriv =
                model::SensitivityAnalyzer::bandwidthDerivative(sweep);
            std::cout << "\n-- " << p.name << " --\n";
            Table t({"available GB/s per core", "% CPI per GB/s/core"});
            std::vector<std::vector<double>> csv;
            for (const auto &d : deriv) {
                t.addRow({formatDouble(d.x, 2), formatDouble(d.dCpiPct, 2)});
                csv.push_back({d.x, d.dCpiPct});
            }
            t.print(std::cout);
            csvBlock("fig09_" + p.name, {"bw_per_core", "pct_per_gbps"},
                     csv);
        }
    }, spec);
}
