/**
 * @file
 * Table 6 reproduction: workload class parameters (means over the
 * non-core-bound members of each class).
 *
 * Printed for both the simulator-fitted parameters and the published
 * per-workload tables, next to the paper's published Table 6 row.
 * Paper claims reproduced: the ordering CPI_cache(ent) > CPI_cache
 * (bd) > CPI_cache(hpc), BF(ent) > BF(bd) > BF(hpc), and
 * MPKI(hpc) >> MPKI(bd) ~ MPKI(ent).
 */

#include "bench_common.hh"
#include "characterize_common.hh"
#include "model/classify.hh"
#include "model/paper_data.hh"

using namespace memsense;
using namespace memsense::bench;

namespace
{

void
printMeans(const std::string &title,
           const std::vector<model::WorkloadParams> &params)
{
    model::Classification cls = model::classify(params);
    std::cout << "\n-- " << title << " --\n";
    Table t({"Workload Class", "CPI_cache", "BF", "MPKI", "WBR",
             "paper CPI_cache", "paper BF", "paper MPKI"});
    std::vector<std::vector<double>> csv;
    for (const auto &m : cls.means) {
        model::WorkloadParams ref = model::paper::classParams(m.cls);
        t.addRow({m.name, formatDouble(m.cpiCache, 2),
                  formatDouble(m.bf, 2), formatDouble(m.mpki, 1),
                  formatPercent(m.wbr, 0), formatDouble(ref.cpiCache, 2),
                  formatDouble(ref.bf, 2), formatDouble(ref.mpki, 1)});
        csv.push_back({m.cpiCache, m.bf, m.mpki, m.wbr, ref.cpiCache,
                       ref.bf, ref.mpki});
    }
    t.print(std::cout);
    csvBlock("tab6_" + title,
             {"cpi_cache", "bf", "mpki", "wbr", "paper_cpi_cache",
              "paper_bf", "paper_mpki"},
             csv);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    return benchMain(argc, argv, [](const BenchArgs &args) {
        header("Table 6", "Workload class parameters (core-bound members "
                          "excluded from the means, per the paper)");

        printMeans("published_workload_tables",
                   model::paper::allWorkloadParams());

        std::vector<std::string> ids;
        for (const auto &info : workloads::workloadCatalog())
            ids.push_back(info.id);
        std::vector<model::WorkloadParams> fitted;
        for (const auto &c :
             characterizeIds(ids, sweepConfig(args), "tab6"))
            fitted.push_back(c.model.params);
        printMeans("fitted_on_simulator", fitted);
    });
}
