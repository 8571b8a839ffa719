/**
 * @file
 * Table 2 reproduction: fitted workload parameters for big data —
 * CPI_cache, blocking factor, MPKI, and writeback rate, printed next
 * to the paper's published values.
 *
 * Paper claims reproduced: Spark carries the largest big data BF
 * (most latency sensitive); Proximity is core-bound (BF ~ 0, MPKI an
 * order of magnitude lower); NITS's WBR exceeds 100% because of its
 * non-temporal result writes.
 */

#include "characterize_common.hh"

int
main(int argc, char **argv)
{
    using namespace memsense::bench;
    return benchMain(argc, argv, [](const BenchArgs &args) {
        header("Table 2", "Workload parameters for big data "
                          "(fitted on the simulator vs. published)");
        auto chars = characterizeIds(
            {"column_store", "nits", "proximity", "spark"},
            sweepConfig(args), "tab2");
        printParamTable("tab2", chars);
    });
}
