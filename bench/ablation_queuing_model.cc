/**
 * @file
 * Ablation: how much does the queuing-curve choice matter?
 *
 * Compares the class sensitivities (Figs 10/11 headline numbers and
 * the Table 7 equivalences) under three queuing models: no queuing
 * at all (compulsory latency only), the analytic default, and a
 * deliberately steep curve. The latency-sensitivity slopes are robust
 * (they are dominated by BF * MPKI); the bandwidth equivalences are
 * not — they exist only because queuing delay gives bandwidth a
 * latency lever, which is why the paper measures Fig. 7 instead of
 * assuming a curve.
 */

#include <cmath>

#include "bench_common.hh"
#include "model/equivalence.hh"
#include "model/paper_data.hh"
#include "model/sensitivity.hh"

using namespace memsense;
using namespace memsense::bench;

namespace
{

struct Variant
{
    std::string name;
    model::QueuingModel queuing;
};

} // anonymous namespace

int
main(int argc, char **argv)
{
    return benchMain(argc, argv, [](const BenchArgs &) {
        header("Ablation: queuing model",
               "Class sensitivities under different queuing-delay curves");

        std::vector<Variant> variants;
        variants.push_back(
            {"no queuing", model::QueuingModel::analyticDefault(1e-6, 1e-6)});
        variants.push_back({"default (linear+M/D/1)",
                            model::QueuingModel::analyticDefault()});
        variants.push_back(
            {"steep (2x)", model::QueuingModel::analyticDefault(160.0, 14.0)});

        model::Platform base = model::Platform::paperBaseline();
        Table t({"queuing curve", "class", "+10ns CPI impact",
                 "BW equiv of 10 ns", "baseline CPI"});
        std::vector<std::vector<double>> csv;
        for (const auto &v : variants) {
            model::Solver solver(v.queuing);
            model::SensitivityAnalyzer an(solver, base);
            model::EquivalenceAnalyzer eq(solver, base);
            for (const auto &p : model::paper::classParams()) {
                auto sweep = an.latencySweep(p, 10.0, 10.0);
                double d10 = sweep.back().cpiIncreaseFrac * 100.0;
                double equiv = eq.bandwidthEquivalentOfLatency(p);
                t.addRow({v.name, p.name, formatPercent(d10 / 100.0, 2),
                          std::isinf(equiv) ? "none"
                                            : formatDouble(equiv, 1),
                          formatDouble(an.baselinePoint(p).cpiEff, 3)});
                csv.push_back({d10, std::isinf(equiv) ? -1.0 : equiv,
                               an.baselinePoint(p).cpiEff});
            }
        }
        t.setFootnote("\nTakeaway: the latency slopes (Fig. 11) barely "
                      "move; the bandwidth-latency equivalence (Table 7) "
                      "hinges on the measured queuing curve.");
        t.print(std::cout);
        csvBlock("ablation_queuing",
                 {"d10_pct", "bw_equiv_gbps", "baseline_cpi"}, csv);
    });
}
