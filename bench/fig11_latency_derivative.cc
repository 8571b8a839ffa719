/**
 * @file
 * Fig. 11 reproduction: CPI impact of each +10 ns compulsory-latency
 * step (the discrete derivative of Fig. 10).
 *
 * Paper claims reproduced: the per-step impact is nearly constant —
 * about 3.5% per 10 ns for the enterprise class and about 2.5% for
 * big data — and zero for the bandwidth-bound HPC class.
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
        header("Figure 11",
               "CPI impact per +10 ns compulsory-latency step, by class");

        model::Platform base = model::Platform::paperBaseline();
        model::SensitivityAnalyzer an(makeSolver(args), base);

        Table t({"step ending at (ns)", "Enterprise", "Big Data", "HPC"});
        std::vector<std::vector<double>> csv;
        std::vector<std::vector<model::DerivativePoint>> per_class;
        for (const auto &p : classMixes()) {
            per_class.push_back(model::SensitivityAnalyzer::latencyDerivative(
                an.latencySweep(p, 60.0, 10.0)));
        }
        for (std::size_t i = 0; i < per_class.front().size(); ++i) {
            t.addRow({formatDouble(per_class[0][i].x, 0),
                      formatPercent(per_class[0][i].dCpiPct / 100.0, 2),
                      formatPercent(per_class[1][i].dCpiPct / 100.0, 2),
                      formatPercent(per_class[2][i].dCpiPct / 100.0, 2)});
            csv.push_back({per_class[0][i].x, per_class[0][i].dCpiPct,
                           per_class[1][i].dCpiPct,
                           per_class[2][i].dCpiPct});
        }
        t.setFootnote("\nPaper: ~3.5%/10ns for enterprise, ~2.5%/10ns for "
                      "big data, 0% for HPC, nearly constant across "
                      "steps. Column order matches classMixes(): "
                      "Enterprise, Big Data, HPC.");
        t.print(std::cout);
        csvBlock("fig11", {"step_ns", "enterprise_pct", "bigdata_pct",
                           "hpc_pct"}, csv);
    }, spec);
}
