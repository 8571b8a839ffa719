/**
 * @file
 * Table 3 reproduction: computed versus measured CPI for Structured
 * Data across the frequency-scaling grid, two runs per core speed.
 *
 * Two validations are printed: (a) fitting the paper's own published
 * Table 3 grid and reproducing its computed-CPI row and error row;
 * (b) the same exercise on grids measured on the bundled simulator.
 * Paper claim reproduced: the Eq. 1 model predicts measured CPI
 * within a few percent at every grid point (the paper reports errors
 * within about +/-3%).
 */

#include <cmath>

#include "bench_common.hh"
#include "characterize_common.hh"
#include "model/paper_data.hh"

using namespace memsense;
using namespace memsense::bench;

namespace
{

void
printValidation(const std::string &title,
                const model::FittedModel &m,
                const std::vector<model::FitObservation> &obs)
{
    std::cout << "\n-- " << title
              << strformat(" (CPI_cache=%.3f, BF=%.3f, R^2=%.3f) --\n",
                           m.params.cpiCache, m.params.bf, m.fit.r2);
    Table t({"core GHz", "MPI", "MP (cycles)", "CPI computed",
             "CPI measured", "error"});
    std::vector<std::vector<double>> csv;
    double worst = 0.0;
    auto errs = model::validationErrors(m, obs);
    for (std::size_t i = 0; i < obs.size(); ++i) {
        const auto &o = obs[i];
        double predicted = m.predictCpi(o.latencyPerInstruction());
        t.addRow({formatDouble(o.coreGhz, 1), formatDouble(o.mpi, 4),
                  formatDouble(o.mpCycles, 0),
                  formatDouble(predicted, 2), formatDouble(o.cpiEff, 2),
                  formatPercent(errs[i], 1)});
        csv.push_back({o.coreGhz, o.mpi, o.mpCycles, predicted,
                       o.cpiEff, errs[i]});
        worst = std::max(worst, std::abs(errs[i]));
    }
    t.setFootnote(strformat("worst |error| = %.1f%% (paper: within "
                            "about +/-3%%)",
                            worst * 100.0));
    t.print(std::cout);
    csvBlock("tab3_" + title,
             {"ghz", "mpi", "mp_cycles", "cpi_computed", "cpi_measured",
              "error"},
             csv);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    return benchMain(argc, argv, [](const BenchArgs &args) {
        header("Table 3",
               "Computed vs. measured CPI for Structured Data");

        // (a) The paper's own measured grid, re-fit by our pipeline.
        auto paper_obs = model::paper::table3StructuredDataRuns();
        model::FittedModel paper_fit = model::fitModel(
            "Structured Data (paper grid)", model::WorkloadClass::BigData,
            paper_obs);
        printValidation("paper_grid", paper_fit, paper_obs);

        // (b) The same exercise on the bundled simulator.
        measure::FreqScalingConfig cfg = sweepConfig(args);
        cfg.runsPerPoint = 2; // Table 3 used two runs per point
        measure::Characterization c =
            measure::characterize("column_store", cfg);
        printValidation("simulator_grid", c.model, c.observations);
    });
}
