/**
 * @file
 * Sec. VII extension: hierarchical (tiered) memory via Eq. 5.
 *
 * Models a fast DRAM tier fronting a slower, larger emerging-memory
 * tier (higher latency, lower bandwidth — the paper's description of
 * emerging technologies) and sweeps the DRAM-tier capacity, showing
 * how each workload class's CPI responds to the near-tier hit
 * fraction. The far tier can become the bandwidth bottleneck for the
 * HPC mix exactly as DRAM does in Fig. 8.
 */

#include "bench_common.hh"
#include "model/hierarchy.hh"
#include "model/paper_data.hh"

using namespace memsense;
using namespace memsense::bench;

int
main(int argc, char **argv)
{
    return benchMain(argc, argv, [](const BenchArgs &) {
        header("Eq. 5 extension (Sec. VII)",
               "Two-tier memory: 75 ns / 40 GB/s DRAM cache in front of a "
               "300 ns / 12 GB/s capacity tier; 64 GB workload footprint");

        model::MemoryTier dram{"DRAM-cache", 75.0, 40.0, 0.0};
        model::MemoryTier nvm{"NVM", 300.0, 12.0, 512.0};
        const std::vector<double> capacities = {0.5, 1, 2, 4, 8, 16,
                                                32, 64};

        for (const auto &p : model::paper::classParams()) {
            model::TieredMemoryModel tiered(dram, nvm, 64.0, 0.5);
            auto sweep = tiered.capacitySweep(p, 2.7, 8, capacities);
            std::cout << "\n-- " << p.name << " --\n";
            Table t({"DRAM tier (GB)", "hit fraction", "CPI",
                     "near util", "far util", "far BW bound"});
            std::vector<std::vector<double>> csv;
            for (std::size_t i = 0; i < sweep.size(); ++i) {
                const auto &r = sweep[i];
                t.addRow({formatDouble(capacities[i], 1),
                          formatPercent(r.hitFraction, 1),
                          formatDouble(r.cpiEff, 3),
                          formatPercent(r.nearUtilization, 1),
                          formatPercent(r.farUtilization, 1),
                          r.farBandwidthBound ? "yes" : "no"});
                csv.push_back({capacities[i], r.hitFraction, r.cpiEff,
                               r.nearUtilization, r.farUtilization,
                               r.farBandwidthBound ? 1.0 : 0.0});
            }
            t.print(std::cout);
            csvBlock("ext_tiered_" + p.name,
                     {"near_gb", "hit", "cpi", "near_util", "far_util",
                      "far_bound"},
                     csv);
        }
        std::cout << "\nEq. 5: CPI_eff = CPI_cache + (MPI_i*MP_i + "
                     "MPI_ii*MP_ii) * BF — the paper's sketch for "
                     "emerging-memory hierarchies, with per-tier queuing "
                     "added.\n";
    });
}
