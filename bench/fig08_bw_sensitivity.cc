/**
 * @file
 * Fig. 8 reproduction: CPI increase vs. reduction in per-core memory
 * bandwidth for the three workload classes, starting from the paper's
 * baseline (1 socket, 8 cores + HT, 2.7 GHz, 75 ns, 4ch DDR3-1867 at
 * ~70% efficiency ~= 42 GB/s, 5.25 GB/s/core) and sweeping channel
 * count and channel speed.
 *
 * Paper claims reproduced: HPC shows by far the most impact and is
 * bandwidth bound at every point; big data tolerates modest
 * reductions but breaks sharply past roughly -2 to -3 GB/s/core;
 * enterprise degrades least; the loss-vs-bandwidth relationship is
 * clearly nonlinear.
 */

#include "model_common.hh"
#include "model/sensitivity.hh"
#include "serve/evaluator.hh"

using namespace memsense;
using namespace memsense::bench;

int
main(int argc, char **argv)
{
    const BenchSpec spec{.declare = addMeasuredFlag};
    return benchMain(argc, argv, [](const BenchArgs &args) {
        header("Figure 8",
               "CPI increase vs. per-core bandwidth reduction, by class");

        model::Platform base = model::Platform::paperBaseline();
        // Each class's sweep re-solves the shared baseline point; route
        // all solves through the memoizing evaluator so repeats are hits.
        serve::Evaluator eval(makeSolver(args));
        model::SensitivityAnalyzer an(eval, base);
        auto variants =
            model::SensitivityAnalyzer::standardBandwidthVariants(base.memory);

        for (const auto &p : classMixes()) {
            auto sweep = an.bandwidthSweep(p, variants);
            std::cout << "\n-- " << p.name << " --\n";
            Table t({"memory config", "GB/s per core", "delta vs. base",
                     "CPI", "CPI increase", "BW bound"});
            std::vector<std::vector<double>> csv;
            for (const auto &pt : sweep) {
                t.addRow({pt.memory.describe(),
                          formatDouble(pt.bwPerCoreGBps, 2),
                          formatDouble(pt.bwDeltaPerCoreGBps, 2),
                          formatDouble(pt.op.cpiEff, 3),
                          formatPercent(pt.cpiIncreaseFrac, 1),
                          pt.op.bandwidthBound ? "yes" : "no"});
                csv.push_back({pt.bwPerCoreGBps, pt.bwDeltaPerCoreGBps,
                               pt.op.cpiEff, pt.cpiIncreaseFrac,
                               pt.op.bandwidthBound ? 1.0 : 0.0});
            }
            t.print(std::cout);
            csvBlock("fig08_" + p.name,
                     {"bw_per_core", "delta", "cpi", "cpi_increase",
                      "bw_bound"},
                     csv);
        }
        std::cout << "\nBaseline: " << base.describe() << "\n";
        const serve::CacheStats cs = eval.cacheStats();
        inform(strformat("evaluator cache: %llu hits / %llu misses "
                         "(%zu distinct operating points)",
                         static_cast<unsigned long long>(cs.hits),
                         static_cast<unsigned long long>(cs.misses),
                         cs.size));
    }, spec);
}
