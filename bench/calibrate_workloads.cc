/**
 * @file
 * Workload calibration diagnostic.
 *
 * Characterizes every catalog workload on the simulator and prints the
 * fitted model parameters next to the paper's published (or inferred)
 * targets. Not a paper table itself — this is the maintenance tool
 * used to keep the synthetic generators aligned with the counter
 * signatures the paper reports.
 *
 * Usage: calibrate_workloads [workload_id ...]
 */

#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "measure/freq_scaling.hh"
#include "util/log.hh"
#include "util/string_util.hh"
#include "util/table.hh"

using namespace memsense;
using namespace memsense::bench;

namespace
{

void
printRow(Table &t, const measure::Characterization &c)
{
    const auto &info = workloads::workloadInfo(c.workloadId);
    const auto &target = info.paperTarget;
    const auto &got = c.model.params;

    // CPU utilization and mean CPI come from the mid-grid observation.
    t.addRow({info.display,
              strformat("%.2f/%.2f", got.cpiCache, target.cpiCache),
              strformat("%.3f/%.3f", got.bf, target.bf),
              strformat("%.1f/%.1f", got.mpki, target.mpki),
              strformat("%.0f%%/%.0f%%", got.wbr * 100.0,
                        target.wbr * 100.0),
              strformat("%.3f", c.model.fit.r2)});
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const BenchSpec spec{
        .positional = true,
        .summary = "fit workloads against the paper targets "
                   "(positional: workload ids, default all)"};
    return benchMain(argc, argv, [](const BenchArgs &args) {
        setLogLevel(LogLevel::Warn); // diagnostic tool: quiet by default
        measure::FreqScalingConfig cfg;
        cfg.jobs = args.jobs;
        const std::vector<std::string> &ids = args.cli.positional();
        for (const std::string &id : ids)
            workloads::workloadInfo(id); // a bad id fails before any run

        Table t({"workload", "CPI_cache (got/target)", "BF (got/target)",
                 "MPKI (got/target)", "WBR (got/target)", "R^2"});
        t.setTitle("Workload calibration: fitted vs. paper targets");
        {
            measure::PhaseTimer phase("sweep");
            for (const auto &c : ids.empty()
                                     ? measure::characterizeAll(cfg)
                                     : measure::characterizeMany(ids, cfg))
                printRow(t, c);
        }
        t.print(std::cout);
    }, spec);
}
