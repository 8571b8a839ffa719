/**
 * @file
 * memsense — command line interface to the whole library.
 *
 * Subcommands:
 *   list                       the workload catalog
 *   solve                      solve a workload on a platform (Eq. 1+4)
 *   sweep latency|bandwidth    sensitivity sweeps (Figs 8/10)
 *   tradeoff                   latency-vs-bandwidth equivalence (Tab. 7)
 *   characterize <workload>    freq-scaling sweep + Eq. 1 fit (Sec. V)
 *   timeseries <workload>      interval-sampled counters (Figs 2/4/5)
 *   mlc                        loaded-latency sweep (Fig. 7)
 *   classify                   fit all workloads, print the Fig. 6 map
 *   tier                       two-tier memory sweep (Eq. 5, Sec. VII)
 *   trace <workload> <file>    record a micro-op trace to a file
 *
 * Run `memsense <subcommand> --help` for the flags of each.
 */

#include <fstream>
#include <iostream>
#include <string>

#include "measure/freq_scaling.hh"
#include "measure/loaded_latency.hh"
#include "measure/timeseries.hh"
#include "model/memsense.hh"
#include "sim/trace.hh"
#include "util/cli.hh"
#include "util/error.hh"
#include "util/log.hh"
#include "util/string_util.hh"
#include "util/table.hh"
#include "workloads/factory.hh"

using namespace memsense;

namespace
{

/** Platform flags shared by the model subcommands. */
void
addPlatformFlags(CliParser &cli)
{
    cli.addInt("cores", 8, "physical cores");
    cli.addInt("smt", 2, "hardware threads per core");
    cli.addDouble("ghz", 2.7, "core frequency (GHz)");
    cli.addInt("channels", 4, "DDR channels");
    cli.addDouble("speed", 1866.7, "DDR rate (MT/s)");
    cli.addDouble("efficiency", 0.70, "sustainable fraction of peak");
    cli.addDouble("latency", 75.0, "compulsory latency (ns)");
}

model::Platform
platformFrom(const CliParser &cli)
{
    model::Platform p;
    p.cores = cli.getInt("cores");
    p.smt = cli.getInt("smt");
    p.ghz = cli.getDouble("ghz");
    p.memory.channels = cli.getInt("channels");
    p.memory.megaTransfers = cli.getDouble("speed");
    p.memory.efficiency = cli.getDouble("efficiency");
    p.memory.compulsoryNs = cli.getDouble("latency");
    return p;
}

/** Workload flags shared by the model subcommands. */
void
addWorkloadFlags(CliParser &cli)
{
    cli.addString("class", "bigdata",
                  "workload class: bigdata | enterprise | hpc");
    cli.addDouble("cpi-cache", 0.0, "CPI_cache (overrides --class)");
    cli.addDouble("bf", 0.0, "blocking factor (overrides --class)");
    cli.addDouble("mpki", 0.0, "LLC MPKI (overrides --class)");
    cli.addDouble("wbr", 0.0, "writebacks per miss (overrides --class)");
}

model::WorkloadParams
workloadFrom(const CliParser &cli)
{
    std::string cls = toLower(cli.getString("class"));
    model::WorkloadClass wc = model::WorkloadClass::BigData;
    if (cls == "enterprise")
        wc = model::WorkloadClass::Enterprise;
    else if (cls == "hpc")
        wc = model::WorkloadClass::Hpc;
    else
        requireConfig(cls == "bigdata",
                      "--class must be bigdata, enterprise, or hpc");
    model::WorkloadParams p = model::paper::classParams(wc);
    if (cli.isSet("cpi-cache"))
        p.cpiCache = cli.getDouble("cpi-cache");
    if (cli.isSet("bf"))
        p.bf = cli.getDouble("bf");
    if (cli.isSet("mpki"))
        p.mpki = cli.getDouble("mpki");
    if (cli.isSet("wbr"))
        p.wbr = cli.getDouble("wbr");
    return p;
}

int
cmdList()
{
    Table t({"id", "display name", "class", "char. cores", "I/O"});
    for (const auto &info : workloads::workloadCatalog()) {
        t.addRow({info.id, info.display, model::className(info.cls),
                  std::to_string(info.characterizationCores),
                  info.io.bytesPerSecond > 0
                      ? formatBandwidth(info.io.bytesPerSecond)
                      : "-"});
    }
    t.print(std::cout);
    return 0;
}

int
cmdSolve(int argc, char **argv)
{
    CliParser cli("memsense solve",
                  "solve a workload's operating point (Eq. 1 + Eq. 4)");
    addPlatformFlags(cli);
    addWorkloadFlags(cli);
    if (!cli.parse(argc, argv))
        return cli.getBool("help") ? 0 : 1;
    model::Platform plat = platformFrom(cli);
    model::WorkloadParams p = workloadFrom(cli);

    model::Solver solver;
    model::OperatingPoint op = solver.solve(p, plat);
    std::cout << "platform : " << plat.describe() << "\n";
    std::cout << strformat("workload : %s (CPI_cache %.2f, BF %.2f, "
                           "MPKI %.1f, WBR %.0f%%)\n",
                           p.name.c_str(), p.cpiCache, p.bf, p.mpki,
                           p.wbr * 100.0);
    std::cout << strformat("CPI      : %.3f (%s)\n", op.cpiEff,
                           op.bandwidthBound ? "bandwidth bound"
                                             : "latency limited");
    std::cout << strformat("latency  : %.1f ns loaded (%.1f ns "
                           "queuing)\n",
                           op.missPenaltyNs, op.queuingDelayNs);
    std::cout << strformat("bandwidth: %.1f GB/s (%.0f%% of "
                           "available)\n",
                           op.bandwidthTotalBps / 1e9,
                           op.utilization * 100.0);
    return 0;
}

int
cmdSweep(int argc, char **argv)
{
    CliParser cli("memsense sweep",
                  "latency / bandwidth sensitivity sweep "
                  "(positional: latency | bandwidth)");
    addPlatformFlags(cli);
    addWorkloadFlags(cli);
    cli.addDouble("max-extra-ns", 60.0, "latency sweep range");
    cli.addDouble("step-ns", 10.0, "latency sweep step");
    if (!cli.parse(argc, argv))
        return cli.getBool("help") ? 0 : 1;
    requireConfig(!cli.positional().empty(),
                  "sweep needs 'latency' or 'bandwidth'");
    std::string kind = cli.positional()[0];
    model::Platform plat = platformFrom(cli);
    model::WorkloadParams p = workloadFrom(cli);
    model::SensitivityAnalyzer an{model::Solver(), plat};

    if (kind == "latency") {
        Table t({"compulsory (ns)", "CPI", "increase", "BW bound"});
        for (const auto &pt :
             an.latencySweep(p, cli.getDouble("max-extra-ns"),
                             cli.getDouble("step-ns"))) {
            t.addRow({formatDouble(pt.compulsoryNs, 0),
                      formatDouble(pt.op.cpiEff, 3),
                      formatPercent(pt.cpiIncreaseFrac, 1),
                      pt.op.bandwidthBound ? "yes" : "no"});
        }
        t.print(std::cout);
        return 0;
    }
    if (kind == "bandwidth") {
        auto variants = model::SensitivityAnalyzer::
            standardBandwidthVariants(plat.memory);
        Table t({"memory", "GB/s per core", "CPI", "increase",
                 "BW bound"});
        for (const auto &pt : an.bandwidthSweep(p, variants)) {
            t.addRow({pt.memory.describe(),
                      formatDouble(pt.bwPerCoreGBps, 2),
                      formatDouble(pt.op.cpiEff, 3),
                      formatPercent(pt.cpiIncreaseFrac, 1),
                      pt.op.bandwidthBound ? "yes" : "no"});
        }
        t.print(std::cout);
        return 0;
    }
    std::cerr << "unknown sweep kind: " << kind << "\n";
    return 1;
}

int
cmdTradeoff(int argc, char **argv)
{
    CliParser cli("memsense tradeoff",
                  "latency vs. bandwidth equivalence (Table 7)");
    addPlatformFlags(cli);
    addWorkloadFlags(cli);
    if (!cli.parse(argc, argv))
        return cli.getBool("help") ? 0 : 1;
    model::EquivalenceAnalyzer an{model::Solver(), platformFrom(cli)};
    model::TradeoffSummary s = an.summarize(workloadFrom(cli));
    std::cout << strformat(
        "baseline CPI %.3f\n+1 GB/s/core : %+.2f%%\n-10 ns       : "
        "%+.2f%%\n10 ns is worth %.1f GB/s; 1 GB/s/core is worth "
        "%.1f ns\n",
        s.baselineCpi, s.perfGainBandwidthPct, s.perfGainLatencyPct,
        s.bandwidthEquivalentGBps, s.latencyEquivalentNs);
    return 0;
}

int
cmdCharacterize(int argc, char **argv)
{
    CliParser cli("memsense characterize",
                  "frequency-scaling sweep + Eq. 1 fit "
                  "(positional: workload id)");
    cli.addBool("fast", "smaller simulation windows");
    cli.addInt("cores", 0, "override characterization core count");
    cli.addInt("jobs", 1,
               "sweep worker threads (0 = hardware threads); results "
               "are identical for any value");
    if (!cli.parse(argc, argv))
        return cli.getBool("help") ? 0 : 1;
    requireConfig(!cli.positional().empty(),
                  "characterize needs a workload id (see `memsense "
                  "list`)");
    measure::FreqScalingConfig cfg;
    if (cli.getBool("fast")) {
        cfg.coreGhz = {2.1, 2.7, 3.1};
        cfg.measure = nsToPicos(600'000.0);
        cfg.warmup = nsToPicos(4'000'000.0);
        cfg.adaptiveWarmup = false;
    }
    cfg.coresOverride = cli.getInt("cores");
    cfg.jobs = cli.getInt("jobs");
    auto c = measure::characterize(cli.positional()[0], cfg);
    std::cout << strformat(
        "%s: CPI = %.3f + %.3f * (MPI*MP), R^2 = %.3f\n"
        "MPKI %.1f, WBR %.0f%%%s\n",
        c.model.params.name.c_str(), c.model.params.cpiCache,
        c.model.params.bf, c.model.fit.r2, c.model.params.mpki,
        c.model.params.wbr * 100.0,
        c.model.coreBound ? " (core bound)" : "");
    return 0;
}

int
cmdTimeseries(int argc, char **argv)
{
    CliParser cli("memsense timeseries",
                  "interval-sampled counters (positional: workload id)");
    cli.addInt("samples", 30, "number of intervals");
    cli.addDouble("interval-us", 100.0, "virtual interval (us)");
    if (!cli.parse(argc, argv))
        return cli.getBool("help") ? 0 : 1;
    requireConfig(!cli.positional().empty(),
                  "timeseries needs a workload id");
    const auto &info = workloads::workloadInfo(cli.positional()[0]);
    measure::TimeSeriesConfig cfg;
    cfg.run.workloadId = info.id;
    cfg.run.cores = info.characterizationCores;
    cfg.interval = nsToPicos(cli.getDouble("interval-us") * 1000.0);
    cfg.samples = cli.getInt("samples");
    measure::TimeSeries ts = measure::captureTimeSeries(cfg);
    Table t({"t (ms)", "util", "CPI", "BW (GB/s)", "MPKI", "MP (ns)"});
    for (const auto &s : ts.samples) {
        t.addRow({formatDouble(s.timeMs, 2),
                  formatPercent(s.cpuUtilization, 0),
                  formatDouble(s.cpi, 2),
                  formatDouble(s.bandwidthGBps, 2),
                  formatDouble(s.mpki, 1),
                  formatDouble(s.missPenaltyNs, 1)});
    }
    t.print(std::cout);
    return 0;
}

int
cmdMlc(int argc, char **argv)
{
    CliParser cli("memsense mlc",
                  "loaded-latency sweep (the Fig. 7 measurement)");
    cli.addDouble("speed", 1866.7, "DDR rate (MT/s)");
    cli.addDouble("read-fraction", 1.0, "generator read share");
    cli.addInt("cores", 8, "1 probe + N-1 generators");
    cli.addInt("jobs", 1,
               "sweep worker threads (0 = hardware threads)");
    if (!cli.parse(argc, argv))
        return cli.getBool("help") ? 0 : 1;
    measure::LoadedLatencySetup setup;
    setup.memMtPerSec = cli.getDouble("speed");
    setup.readFraction = cli.getDouble("read-fraction");
    setup.cores = cli.getInt("cores");
    setup.jobs = cli.getInt("jobs");
    auto c = measure::sweepLoadedLatency(setup);
    std::cout << strformat("unloaded %.1f ns, achievable %.1f GB/s\n",
                           c.unloadedNs, c.maxBandwidthGBps);
    Table t({"delay (cyc)", "BW (GB/s)", "util", "latency (ns)",
             "queuing (ns)"});
    for (const auto &p : c.points) {
        t.addRow({std::to_string(p.delayCycles),
                  formatDouble(p.bandwidthGBps, 2),
                  formatPercent(p.bandwidthGBps / c.maxBandwidthGBps, 0),
                  formatDouble(p.latencyNs, 1),
                  formatDouble(p.latencyNs - c.unloadedNs, 1)});
    }
    t.print(std::cout);
    return 0;
}

int
cmdClassify(int argc, char **argv)
{
    CliParser cli("memsense classify",
                  "characterize all workloads and print the Fig. 6 map");
    cli.addBool("paper", "use published values instead of fitting");
    cli.addInt("jobs", 1,
               "sweep worker threads (0 = hardware threads); results "
               "are identical for any value");
    if (!cli.parse(argc, argv))
        return cli.getBool("help") ? 0 : 1;
    std::vector<model::WorkloadParams> params;
    if (cli.getBool("paper")) {
        params = model::paper::allWorkloadParams();
    } else {
        measure::FreqScalingConfig cfg;
        cfg.coreGhz = {2.1, 2.7, 3.1};
        cfg.measure = nsToPicos(600'000.0);
        cfg.warmup = nsToPicos(4'000'000.0);
        cfg.adaptiveWarmup = false;
        cfg.jobs = cli.getInt("jobs");
        for (const auto &c : measure::characterizeAll(cfg))
            params.push_back(c.model.params);
    }
    model::Classification cls = model::classify(params);
    Table t({"workload", "class", "BF", "refs/cycle", "core bound"});
    for (const auto &pt : cls.points) {
        t.addRow({pt.name, model::className(pt.cls),
                  formatDouble(pt.bf, 3),
                  formatDouble(pt.refsPerCycle, 4),
                  pt.coreBound ? "yes" : "no"});
    }
    t.print(std::cout);
    std::cout << strformat("\nk-means agreement with labels: %.0f%%\n",
                           cls.clusterAgreement * 100.0);
    return 0;
}

int
cmdTier(int argc, char **argv)
{
    CliParser cli("memsense tier",
                  "two-tier memory sweep (Eq. 5, Sec. VII)");
    addWorkloadFlags(cli);
    cli.addDouble("footprint-gb", 256.0, "workload footprint (GB)");
    cli.addDouble("near-latency", 75.0, "near tier latency (ns)");
    cli.addDouble("near-bw", 40.0, "near tier bandwidth (GB/s)");
    cli.addDouble("far-latency", 300.0, "far tier latency (ns)");
    cli.addDouble("far-bw", 12.0, "far tier bandwidth (GB/s)");
    cli.addDouble("theta", 0.5, "locality exponent (0, 1]");
    if (!cli.parse(argc, argv))
        return cli.getBool("help") ? 0 : 1;
    model::MemoryTier near{"near", cli.getDouble("near-latency"),
                           cli.getDouble("near-bw"), 0.0};
    model::MemoryTier far{"far", cli.getDouble("far-latency"),
                          cli.getDouble("far-bw"), 1024.0};
    model::TieredMemoryModel tiered(near, far,
                                    cli.getDouble("footprint-gb"),
                                    cli.getDouble("theta"));
    model::WorkloadParams p = workloadFrom(cli);
    std::vector<double> caps;
    for (double c = cli.getDouble("footprint-gb") / 64.0;
         c <= cli.getDouble("footprint-gb"); c *= 2.0) {
        caps.push_back(c);
    }
    auto sweep = tiered.capacitySweep(p, 2.7, 8, caps);
    Table t({"near (GB)", "hit", "CPI", "far util", "far bound"});
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        t.addRow({formatDouble(caps[i], 1),
                  formatPercent(sweep[i].hitFraction, 0),
                  formatDouble(sweep[i].cpiEff, 3),
                  formatPercent(sweep[i].farUtilization, 0),
                  sweep[i].farBandwidthBound ? "yes" : "no"});
    }
    t.print(std::cout);
    return 0;
}

int
cmdReport(int argc, char **argv)
{
    CliParser cli("memsense report",
                  "full markdown sensitivity report for a workload");
    addPlatformFlags(cli);
    addWorkloadFlags(cli);
    if (!cli.parse(argc, argv))
        return cli.getBool("help") ? 0 : 1;
    model::SensitivityReport r = model::buildReport(
        model::Solver(), workloadFrom(cli), platformFrom(cli));
    std::cout << r.toMarkdown();
    return 0;
}

int
cmdTrace(int argc, char **argv)
{
    CliParser cli("memsense trace",
                  "record a workload's micro-op trace "
                  "(positional: workload id, output file)");
    cli.addInt("ops", 100000, "ops to record");
    cli.addInt("seed", 1, "generator seed");
    if (!cli.parse(argc, argv))
        return cli.getBool("help") ? 0 : 1;
    requireConfig(cli.positional().size() >= 2,
                  "trace needs a workload id and an output file");
    auto w = workloads::makeWorkload(cli.positional()[0], 0,
                                     static_cast<std::uint64_t>(
                                         cli.getInt("seed")));
    sim::RecordingStream rec(*w,
                             static_cast<std::size_t>(cli.getInt("ops")));
    sim::MicroOp op;
    for (int i = 0; i < cli.getInt("ops"); ++i) {
        if (!rec.next(op))
            break;
    }
    std::ofstream out(cli.positional()[1]);
    requireConfig(static_cast<bool>(out),
                  "cannot open " + cli.positional()[1]);
    rec.trace().save(out);
    std::cout << strformat("wrote %zu ops (%llu instructions, %llu "
                           "memory ops) to %s\n",
                           rec.trace().size(),
                           static_cast<unsigned long long>(
                               rec.trace().instructionCount()),
                           static_cast<unsigned long long>(
                               rec.trace().memOpCount()),
                           cli.positional()[1].c_str());
    return 0;
}

void
usage()
{
    std::cout <<
        "memsense — memory latency/bandwidth sensitivity toolkit\n"
        "\nsubcommands:\n"
        "  list          the workload catalog\n"
        "  solve         operating point of a workload on a platform\n"
        "  sweep         latency|bandwidth sensitivity sweeps\n"
        "  tradeoff      latency vs. bandwidth equivalence (Table 7)\n"
        "  characterize  freq-scaling sweep + Eq. 1 fit\n"
        "  timeseries    interval-sampled counters\n"
        "  mlc           loaded-latency sweep (Fig. 7)\n"
        "  classify      fit all workloads, print the Fig. 6 map\n"
        "  tier          two-tier memory sweep (Eq. 5)\n"
        "  report        full markdown sensitivity report\n"
        "  trace         record a micro-op trace\n"
        "\nrun `memsense <subcommand> --help` for flags.\n";
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    setLogLevel(LogLevel::Warn);
    if (argc < 2) {
        usage();
        return 1;
    }
    std::string cmd = argv[1];
    // Shift argv so each subcommand parses its own flags.
    int sub_argc = argc - 1;
    char **sub_argv = argv + 1;
    try {
        if (cmd == "list")
            return cmdList();
        if (cmd == "solve")
            return cmdSolve(sub_argc, sub_argv);
        if (cmd == "sweep")
            return cmdSweep(sub_argc, sub_argv);
        if (cmd == "tradeoff")
            return cmdTradeoff(sub_argc, sub_argv);
        if (cmd == "characterize")
            return cmdCharacterize(sub_argc, sub_argv);
        if (cmd == "timeseries")
            return cmdTimeseries(sub_argc, sub_argv);
        if (cmd == "mlc")
            return cmdMlc(sub_argc, sub_argv);
        if (cmd == "classify")
            return cmdClassify(sub_argc, sub_argv);
        if (cmd == "tier")
            return cmdTier(sub_argc, sub_argv);
        if (cmd == "report")
            return cmdReport(sub_argc, sub_argv);
        if (cmd == "trace")
            return cmdTrace(sub_argc, sub_argv);
        if (cmd == "--help" || cmd == "help") {
            usage();
            return 0;
        }
    } catch (const std::exception &e) {
        std::cerr << e.what() << "\n";
        return 1;
    }
    std::cerr << "unknown subcommand: " << cmd << "\n\n";
    usage();
    return 1;
}
