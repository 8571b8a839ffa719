/**
 * @file
 * Fig. 2 reproduction: measured CPU utilization, CPI, and memory
 * bandwidth vs. time for the four big data workloads.
 *
 * Paper claims reproduced: structured data runs near 100% utilization
 * with a narrow CPI band and heavy memory traffic; NITS adds a >2 GB/s
 * I/O stream; proximity is core-bound with an order of magnitude less
 * memory traffic; Spark runs at ~70% utilization with visibly variable
 * CPI.
 */

#include "timeseries_common.hh"

int
main(int argc, char **argv)
{
    using namespace memsense::bench;
    return benchMain(argc, argv, [](const BenchArgs &args) {
        header("Figure 2",
               "CPU utilization / CPI / memory bandwidth vs. time, big "
               "data workloads (100 us virtual sampling interval)");
        runTimeSeries("fig02",
                      {"column_store", "nits", "proximity", "spark"},
                      args);
    });
}
