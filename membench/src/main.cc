/**
 * @file
 * The repository benchmark's command line (see membench/README.md).
 *
 *   membench --workload sweep_fig03|mlc_fig07|serve_mixed --seed N
 *            --seconds S --trace 0|1 [--trace-out PATH]
 *
 * Prints the metrics with their units, the output checks and the host
 * record; the last stdout line is the JSON result. Every argument is
 * validated before any work runs: a bad one exits 2, a failure during
 * the run exits 1 without a result line.
 */

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "common.hh"
#include "host.hh"
#include "serve_mixed.hh"
#include "sweeps.hh"
#include "util/cli.hh"
#include "util/log.hh"

namespace
{

using namespace membench;
namespace fs = std::filesystem;

constexpr int kUsageError = 2;

/** Strict decimal parse: digits only, no sign, no overflow. */
bool
parseUnsigned(const std::string &s, unsigned long long &out)
{
    if (s.empty() || s.size() > 20 ||
        s.find_first_not_of("0123456789") != std::string::npos)
        return false;
    errno = 0;
    out = std::strtoull(s.c_str(), nullptr, 10);
    return errno != ERANGE;
}

int
usageError(const std::string &why)
{
    std::fprintf(stderr, "membench: %s (see --help)\n", why.c_str());
    return kUsageError;
}

/** The directory holding this executable (build artifacts go there). */
fs::path
exeDir()
{
    std::error_code ec;
    const fs::path exe = fs::read_symlink("/proc/self/exe", ec);
    return ec ? fs::current_path() : exe.parent_path();
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    memsense::CliParser cli(
        "membench", "Repository benchmark: one workload, one result line.");
    cli.addString("workload", "",
                  "sweep_fig03 | mlc_fig07 | serve_mixed (required)");
    cli.addString("seed", "1", "input seed, a non-negative integer");
    cli.addString("seconds", "30", "measurement time, 1..600");
    cli.addString("trace", "0",
                  "1 = traced run printing the per-layer metrics");
    cli.addString("trace-out", "",
                  "Chrome trace of a traced run (default: "
                  "<build dir>/traces/<workload>-seed<N>.json)");
    if (!cli.parse(argc, argv)) {
        for (int i = 1; i < argc; ++i)
            if (std::strcmp(argv[i], "--help") == 0)
                return 0;
        return kUsageError;
    }
    if (!cli.positional().empty())
        return usageError("unexpected argument '" + cli.positional()[0] +
                          "'");

    RunArgs args;
    args.workload = cli.getString("workload");
    if (args.workload != "sweep_fig03" && args.workload != "mlc_fig07" &&
        args.workload != "serve_mixed")
        return usageError("unknown workload '" + args.workload + "'");
    unsigned long long seed = 0, seconds = 0;
    if (!parseUnsigned(cli.getString("seed"), seed))
        return usageError("bad --seed '" + cli.getString("seed") + "'");
    if (!parseUnsigned(cli.getString("seconds"), seconds) || seconds < 1 ||
        seconds > 600)
        return usageError("bad --seconds '" + cli.getString("seconds") +
                          "'");
    const std::string trace = cli.getString("trace");
    if (trace != "0" && trace != "1")
        return usageError("bad --trace '" + trace + "'");
    args.seed = seed;
    args.seconds = static_cast<int>(seconds);
    args.trace = trace == "1";
    args.stateDir = (exeDir() / "counts").string();
    args.traceOut = cli.getString("trace-out");
    if (args.traceOut.empty() && args.trace) {
        const fs::path dir = exeDir() / "traces";
        std::error_code ec;
        fs::create_directories(dir, ec);
        args.traceOut = (dir / (args.workload + "-seed" +
                                std::to_string(seed) + ".json"))
                            .string();
    }
    if (!args.traceOut.empty() && !std::ofstream(args.traceOut))
        return usageError("cannot write --trace-out '" + args.traceOut +
                          "'");

    memsense::setLogLevel(memsense::LogLevel::Warn);
    const double load_before = loadAverage1();
    std::printf("membench %s seed=%llu seconds=%d trace=%d\n",
                args.workload.c_str(), seed, args.seconds,
                args.trace ? 1 : 0);
    std::fflush(stdout);

    RunResult res;
    try {
        if (args.workload == "sweep_fig03")
            res = runSweepFig03(args);
        else if (args.workload == "mlc_fig07")
            res = runMlcFig07(args);
        else
            res = runServeMixed(args);
        if (args.trace) {
            checkExactCounts(args, res.exactCounts, res.checks);
            res.metrics.add("error_rate", res.checks.errorRate(),
                            "fraction");
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "membench: %s failed: %s\n",
                     args.workload.c_str(), e.what());
        return 1;
    }

    std::cout << res.metrics.text()
              << "checks: attempted " << res.checks.attempted()
              << ", failed " << res.checks.failed() << ", error_rate "
              << res.checks.errorRate() << "\n";
    if (args.trace)
        std::cout << "chrome trace: " << args.traceOut << "\n";
    std::cout << "host: " << hostRecordJson(load_before, loadAverage1())
              << "\n"
              << resultLine(res.checks, res.metrics) << std::endl;
    return 0;
}
