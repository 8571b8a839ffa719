/**
 * @file
 * Ablation (paper Eq. 3): BF ~ 1/MLP. Sweeping the core's MSHR count
 * (the MLP limit) and re-fitting the blocking factor shows the
 * predicted inverse relationship emerge from the simulator.
 */

#include "characterize_common.hh"
#include "model/cpi_model.hh"

using namespace memsense;
using namespace memsense::bench;

int
main(int argc, char **argv)
{
    return benchMain(argc, argv, [](const BenchArgs &) {
        header("Ablation: MLP (MSHR count)",
               "Fitted blocking factor vs. the core's MSHR limit "
               "(Eq. 3: BF ~ 1/MLP)");

        measure::FreqScalingConfig cfg = sweepConfig(true);
        Table t({"MSHRs", "BF (column store)", "implied MLP",
                 "BF (spark)", "implied MLP "});
        std::vector<std::vector<double>> csv;
        for (std::uint32_t mshrs : {1u, 2u, 4u, 10u, 24u}) {
            cfg.mshrs = mshrs;
            auto cs = measure::characterize("column_store", cfg);
            auto sp = measure::characterize("spark", cfg);
            double bf_cs = cs.model.params.bf;
            double bf_sp = sp.model.params.bf;
            t.addRow({std::to_string(mshrs), formatDouble(bf_cs, 3),
                      bf_cs > 0 ? formatDouble(model::impliedMlp(bf_cs), 1)
                                : "inf",
                      formatDouble(bf_sp, 3),
                      bf_sp > 0 ? formatDouble(model::impliedMlp(bf_sp), 1)
                                : "inf"});
            csv.push_back({static_cast<double>(mshrs), bf_cs, bf_sp});
        }
        t.setFootnote("\nExpected: BF falls as MSHRs (MLP) grow, "
                      "saturating once the dependent-load fraction, not "
                      "the MSHR count, limits overlap.");
        t.print(std::cout);
        csvBlock("ablation_mlp", {"mshrs", "bf_column_store", "bf_spark"},
                 csv);
    });
}
