/**
 * @file
 * Fig. 5 reproduction: measured CPU utilization, CPI, and memory
 * bandwidth vs. time for the four SPECfp HPC proxies.
 *
 * Paper claims reproduced: rate-style runs on three cores per socket,
 * full CPU utilization, steady CPI, and memory bandwidth far above
 * the other classes (the HPC MPKI is ~5x the big data class).
 */

#include "timeseries_common.hh"

int
main(int argc, char **argv)
{
    using namespace memsense::bench;
    return benchMain(argc, argv, [](const BenchArgs &args) {
        header("Figure 5",
               "CPU utilization / CPI / memory bandwidth vs. time, HPC "
               "proxies (100 us virtual sampling interval, 3 cores)");
        runTimeSeries("fig05", {"bwaves", "milc", "soplex", "wrf"},
                      args);
    });
}
