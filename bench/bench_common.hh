/**
 * @file
 * Shared helpers for the paper-reproduction bench harnesses.
 *
 * Every binary in bench/ regenerates one of the paper's tables or
 * figures: it prints the same rows/series the paper reports, plus a
 * CSV block (between BEGIN/END markers) for replotting. Absolute
 * values come from the bundled simulator, not the authors' Xeons; the
 * shapes are the reproduction target (see EXPERIMENTS.md).
 */

#ifndef MEMSENSE_BENCH_BENCH_COMMON_HH
#define MEMSENSE_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "measure/metrics.hh"
#include "measure/resilience.hh"
#include "util/cli.hh"
#include "util/csv.hh"
#include "util/error.hh"
#include "util/fault_injection.hh"
#include "util/log.hh"
#include "util/string_util.hh"
#include "util/table.hh"
#include "util/trace.hh"

namespace memsense::bench
{

/**
 * Atomically replace @p path with @p content: write `<path>.tmp` in
 * the same directory, flush, then rename over the target. A crash (or
 * injected fault) mid-write leaves either the old file or no file —
 * never a torn one — so downstream extractors can trust whatever they
 * find on disk.
 */
inline void
atomicWriteFile(const std::string &path, const std::string &content)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        requireConfig(out.good(), "cannot open " + tmp + " for writing");
        out << content;
        out.flush();
        requireConfig(out.good(), "short write to " + tmp);
    }
    requireConfig(std::rename(tmp.c_str(), path.c_str()) == 0,
                  "cannot rename " + tmp + " over " + path);
}

/**
 * The --out-dir destination for CSV/JSON artifacts ("" = stdout only).
 * One slot per process, set once by benchMain().
 */
inline std::string &
outDir()
{
    // memsense-lint: allow(mutable-global-state): process-wide output
    // destination, written once during argv parsing in benchMain()
    // before any worker thread exists.
    static std::string dir;
    return dir;
}

/**
 * The experiment id naming this process's observability artifacts
 * (basename of argv[0], e.g. "fig03_cpi_fits"). Set by benchMain().
 */
inline std::string &
experimentId()
{
    // memsense-lint: allow(mutable-global-state): process-wide
    // experiment name, written once during argv parsing in benchMain()
    // before any worker thread exists.
    static std::string id = "bench";
    return id;
}

/**
 * Flush observability artifacts: with --metrics, write
 * `<out-dir>/<exp>.metrics.json` (schema memsense.metrics.v1); with
 * --trace PATH, finalize the Chrome trace file. Registered via
 * std::atexit by benchMain() so every exit path of every driver
 * flushes; safe to also call explicitly (flushing twice just rewrites
 * the same snapshot).
 */
inline void
flushObservability()
{
    try {
        if (trace::statsEnabled()) {
            const std::string dir =
                outDir().empty() ? std::string(".") : outDir();
            measure::MetricsRegistry::instance().flushToFile(
                dir + "/" + experimentId() + ".metrics.json",
                experimentId());
        }
        trace::stopTracing();
    } catch (const std::exception &e) {
        // atexit context: report, never propagate (that would terminate
        // with the real artifacts already on disk).
        std::fprintf(stderr, "observability flush failed: %s\n",
                     e.what());
    }
}

/** Print the standard header for a reproduction binary. */
inline void
header(const std::string &exp_id, const std::string &what)
{
    std::cout << "=== memsense reproduction: " << exp_id << " ===\n"
              << what << "\n\n";
}

/**
 * Print a CSV block delimited for machine extraction; with --out-dir
 * the same CSV is also written atomically to `<dir>/<name>.csv`.
 */
inline void
csvBlock(const std::string &name,
         const std::vector<std::string> &columns,
         const std::vector<std::vector<double>> &rows)
{
    std::ostringstream csv;
    CsvWriter w(csv);
    w.writeRow(columns);
    for (const auto &r : rows)
        w.writeRow(r);

    std::cout << "--- BEGIN CSV " << name << " ---\n"
              << csv.str() << "--- END CSV " << name << " ---\n";
    if (!outDir().empty())
        atomicWriteFile(outDir() + "/" + name + ".csv", csv.str());
}

/**
 * The common experiment flags, parsed once by benchMain(). The
 * fault-tolerance flags default off, which keeps the strict
 * first-error-aborts behavior of the measure/ sweeps; --jobs never
 * changes a result (measure/parallel.hh).
 */
struct BenchArgs
{
    const CliParser &cli; ///< the driver's own flags and positionals
    bool fast;
    int jobs;
    measure::ResilienceConfig resilience;
};

/** What one bench binary adds to the common command line. */
struct BenchSpec
{
    /** Registers the binary's own flags on the shared parser. */
    void (*declare)(CliParser &) = nullptr;
    /** Accepts positional arguments (otherwise a stray one exits 2). */
    bool positional = false;
    /** Declares the experiment flags; perf_suite takes only the
     *  logging pair. */
    bool experiment = true;
    const char *summary = "memsense reproduction bench (see DESIGN.md)";
};

/** Declare the common set on @p cli. */
inline void
addCommonFlags(CliParser &cli, bool experiment)
{
    cli.addBool("quiet", "warnings and errors only");
    cli.addBool("debug", "debug logging");
    if (!experiment)
        return;
    cli.addBool("fast", "smaller simulation windows");
    cli.addInt("jobs", 1,
               "sweep workers, 0 = one per hardware thread; results "
               "are identical for any value");
    cli.addString("out-dir", "",
                  "also write each CSV (and failure/metrics JSON) here");
    cli.addString("trace", "", "write a Chrome trace of every span here");
    cli.addBool("metrics", "write <out-dir>/<exp>.metrics.json");
    cli.addInt("max-retries", 0, "retry a failing job up to N (0..9999) "
                                 "extra times");
    cli.addDouble("job-timeout-ms", 0.0,
                  "per-job wall-clock budget across retries (0 = none)");
    cli.addString("checkpoint", "",
                  "append-only journal; rerun with the same path (and "
                  "sweep settings) to resume");
}

/**
 * Apply the parsed common flags: logging, --out-dir, the
 * observability switches (docs/observability.md) and MEMSENSE_FAULTS
 * (util/fault_injection.hh). Throws ConfigError, before any
 * simulation, on a stray positional, a bad --out-dir (empty, missing,
 * or not a directory) or an out-of-range fault-tolerance flag.
 */
inline BenchArgs
applyCommonFlags(const CliParser &cli, const BenchSpec &spec)
{
    setLogLevel(cli.getBool("debug")   ? LogLevel::Debug
                : cli.getBool("quiet") ? LogLevel::Warn
                                       : LogLevel::Info);
    if (!spec.positional && !cli.positional().empty())
        throw ConfigError("unexpected argument '" + cli.positional()[0] +
                          "'");
    BenchArgs args{cli, false, 1, {}};
    if (spec.experiment) {
        args.fast = cli.getBool("fast");
        args.jobs = cli.getInt("jobs");
        outDir() = cli.getString("out-dir");
        std::error_code ec;
        requireConfig(!cli.isSet("out-dir") ||
                          std::filesystem::is_directory(outDir(), ec),
                      "--out-dir '" + outDir() + "' is not a directory");
        measure::ResilienceConfig &rc = args.resilience;
        rc.maxRetries = cli.getInt("max-retries");
        requireConfig(rc.maxRetries >= 0 && rc.maxRetries <= 9999,
                      "--max-retries needs a whole number up to 9999");
        rc.jobTimeoutMs = cli.getDouble("job-timeout-ms");
        requireConfig(rc.jobTimeoutMs >= 0.0,
                      "--job-timeout-ms needs a non-negative number");
        rc.checkpointPath = cli.getString("checkpoint");
        requireConfig(!cli.isSet("checkpoint") || !rc.checkpointPath.empty(),
                      "--checkpoint needs a journal path");
        const std::string trace_path = cli.getString("trace");
        if (!trace_path.empty())
            trace::startTracing(trace_path);
        trace::setStatsEnabled(cli.getBool("metrics"));
        if (!trace_path.empty() || cli.getBool("metrics"))
            std::atexit(flushObservability);
    }
    fault::configureFromEnv();
    return args;
}

/**
 * The `main` of every bench binary: declare the common flags plus
 * @p spec's own on one CliParser, parse argv once, apply them, then
 * run @p body (callable with `const BenchArgs &`). The one owner of
 * the exit codes:
 *
 *   0  success, or --help (usage on stdout, no work done)
 *   1  any other std::exception escaping @p body
 *   2  a bad command line, before any work: unknown flag, missing or
 *      malformed value, stray positional, bad --out-dir, out-of-range
 *      fault-tolerance flag; or a ConfigError escaping @p body
 *
 * Errors print one line, `<exp>: <what>`, on stderr.
 */
template <typename Body>
int
benchMain(int argc, char **argv, Body body, const BenchSpec &spec = {})
{
    if (argc > 0 && argv[0] && argv[0][0])
        experimentId() =
            std::filesystem::path(argv[0]).filename().string();
    CliParser cli(experimentId(), spec.summary);
    addCommonFlags(cli, spec.experiment);
    if (spec.declare)
        spec.declare(cli);
    if (!cli.parse(argc, argv))
        return cli.getBool("help") ? 0 : 2;
    try {
        body(applyCommonFlags(cli, spec));
        return 0;
    } catch (const ConfigError &e) {
        std::fprintf(stderr, "%s: %s\n", experimentId().c_str(), e.what());
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s: %s\n", experimentId().c_str(), e.what());
        return 1;
    }
}

/**
 * Report a sweep's failure manifest: a WARN summary plus a delimited
 * JSON block, and with --out-dir an atomic `<dir>/<exp_id>.failures.json`
 * for machine consumption. No output at all for a clean sweep.
 */
inline void
reportFailures(const std::string &exp_id,
               const measure::FailureManifest &manifest,
               std::size_t total_jobs)
{
    if (manifest.empty())
        return;
    warn(exp_id + ": " + manifest.summary(total_jobs));
    const std::string json = manifest.toJson();
    std::cout << "--- BEGIN FAILURES " << exp_id << " ---\n"
              << json << "\n--- END FAILURES " << exp_id << " ---\n";
    if (!outDir().empty())
        atomicWriteFile(outDir() + "/" + exp_id + ".failures.json",
                        json + "\n");
}

} // namespace memsense::bench

#endif // MEMSENSE_BENCH_BENCH_COMMON_HH
