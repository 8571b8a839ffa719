/**
 * @file
 * Fig. 4 reproduction: measured CPU utilization, CPI, and memory
 * bandwidth vs. time for the four enterprise workloads.
 *
 * Paper claims reproduced: steady-state behavior across OLTP / JVM /
 * virtualization / web caching; web caching runs at reduced CPU
 * utilization (half the virtual processors held for packet
 * processing); enterprise CPIs sit well above the big data class.
 */

#include "timeseries_common.hh"

int
main(int argc, char **argv)
{
    using namespace memsense::bench;
    return benchMain(argc, argv, [](const BenchArgs &args) {
        header("Figure 4",
               "CPU utilization / CPI / memory bandwidth vs. time, "
               "enterprise workloads (100 us virtual sampling interval)");
        runTimeSeries("fig04",
                      {"oltp", "jvm", "virtualization", "web_caching"},
                      args);
    });
}
