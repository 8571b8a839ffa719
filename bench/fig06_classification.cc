/**
 * @file
 * Fig. 6 reproduction: bandwidth demand vs. latency sensitivity for
 * all twelve workloads, with per-class means (the red points of the
 * paper's figure) and the near-origin core-bound cluster.
 *
 * By default the scatter is built from parameters fitted on the
 * bundled simulator (the full pipeline); --paper uses the published
 * table values instead. Paper claims reproduced: the classes form
 * distinct clusters; enterprise is most latency sensitive, HPC most
 * bandwidth hungry, big data intermediate on both axes; Proximity
 * (and core-bound SPEC components) cluster near the origin and are
 * excluded from the means.
 */

#include <string>

#include "bench_common.hh"
#include "characterize_common.hh"
#include "model/classify.hh"
#include "model/paper_data.hh"

using namespace memsense;
using namespace memsense::bench;

int
main(int argc, char **argv)
{
    const BenchSpec spec{.declare = [](CliParser &cli) {
        cli.addBool("paper", "use the published table values instead of "
                             "fitting on the simulator");
    }};
    return benchMain(argc, argv, [](const BenchArgs &args) {
        const bool use_paper = args.cli.getBool("paper");
        header("Figure 6",
               std::string("Bandwidth demand vs. latency sensitivity (") +
                   (use_paper ? "published table values"
                              : "parameters fitted on the simulator") +
                   ")");

        std::vector<model::WorkloadParams> params;
        if (use_paper) {
            params = model::paper::allWorkloadParams();
        } else {
            std::vector<std::string> ids;
            for (const auto &info : workloads::workloadCatalog())
                ids.push_back(info.id);
            for (const auto &c :
                 characterizeIds(ids, sweepConfig(args), "fig06"))
                params.push_back(c.model.params);
        }

        model::Classification cls = model::classify(params);

        Table t({"Workload", "class", "BF (x)", "refs/cycle (y)",
                 "core bound"});
        std::vector<std::vector<double>> csv;
        for (const auto &pt : cls.points) {
            t.addRow({pt.name, model::className(pt.cls),
                      formatDouble(pt.bf, 3), formatDouble(pt.refsPerCycle, 4),
                      pt.coreBound ? "yes" : "no"});
            csv.push_back({pt.bf, pt.refsPerCycle,
                           pt.coreBound ? 1.0 : 0.0,
                           static_cast<double>(pt.cls)});
        }
        t.print(std::cout);
        csvBlock("fig06_points", {"bf", "refs_per_cycle", "core_bound",
                                  "class"}, csv);

        std::cout << "\nClass means (Fig. 6 red points / Table 6 inputs):\n";
        Table means({"Class", "CPI_cache", "BF", "MPKI", "WBR",
                     "refs/cycle"});
        for (const auto &m : cls.means) {
            means.addRow({m.name, formatDouble(m.cpiCache, 2),
                          formatDouble(m.bf, 2), formatDouble(m.mpki, 1),
                          formatPercent(m.wbr, 0),
                          formatDouble(m.refsPerCycle(), 4)});
        }
        means.setFootnote(strformat(
            "\nk-means on the normalized scatter recovers the labeled "
            "classes for %.0f%% of non-core-bound workloads (paper: "
            "\"each workload class forms its own distinct cluster\").",
            cls.clusterAgreement * 100.0));
        means.print(std::cout);
    }, spec);
}
