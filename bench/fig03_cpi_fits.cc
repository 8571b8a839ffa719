/**
 * @file
 * Fig. 3 reproduction: CPI vs. total latency-per-instruction scatter
 * and linear fits for the big data workloads.
 *
 * Methodology (paper Sec. V.A): run each workload at several core
 * frequencies and two memory speeds, measure (CPI_eff, MPI, MP) with
 * the simulator's counters, and fit CPI = CPI_cache + BF * (MPI*MP).
 * Paper claims reproduced: high-R^2 linear fits for structured data
 * / NITS / Spark (paper reports R^2 = 0.95 for structured data) and
 * a near-zero slope, poor-R^2 fit for the core-bound Proximity
 * workload ("not of concern", Sec. V.E).
 */

#include "characterize_common.hh"

int
main(int argc, char **argv)
{
    using namespace memsense::bench;
    return benchMain(argc, argv, [](const BenchArgs &args) {
        header("Figure 3",
               "CPI vs. MPI*MP with Eq. 1 linear fits, big data workloads "
               "(frequency-scaling grid: core {2.1,2.4,2.7,3.1} GHz x DDR3 "
               "{1333,1867})");
        auto chars = characterizeIds(
            {"column_store", "nits", "proximity", "spark"},
            sweepConfig(args), "fig03");
        printFitScatter("fig03", chars);
    });
}
