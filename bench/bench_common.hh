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

#include <cmath>
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
 * One slot per process, set once by benchInit().
 */
inline std::string &
outDir()
{
    // memsense-lint: allow(mutable-global-state): process-wide output
    // destination, written once during argv parsing in benchInit()
    // before any worker thread exists.
    static std::string dir;
    return dir;
}

/**
 * The experiment id naming this process's observability artifacts
 * (basename of argv[0], e.g. "fig03_cpi_fits"). Set by benchInit().
 */
inline std::string &
experimentId()
{
    // memsense-lint: allow(mutable-global-state): process-wide
    // experiment name, written once during argv parsing in benchInit()
    // before any worker thread exists.
    static std::string id = "bench";
    return id;
}

/**
 * Flush observability artifacts: with --metrics, write
 * `<out-dir>/<exp>.metrics.json` (schema memsense.metrics.v1); with
 * --trace PATH, finalize the Chrome trace file. Registered via
 * std::atexit by benchInit() so every exit path of every driver
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

/** Shorten noisy logging for bench runs unless asked otherwise. */
inline void
quietLogs(int argc, char **argv)
{
    setLogLevel(LogLevel::Info);
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--quiet")
            setLogLevel(LogLevel::Warn);
        if (std::string(argv[i]) == "--debug")
            setLogLevel(LogLevel::Debug);
    }
}

/** True when the user passed --fast (smaller simulation windows). */
inline bool
fastMode(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--fast")
            return true;
    return false;
}

/**
 * Worker count from --jobs N / --jobs=N.
 *
 * Default 1 (the serial reference path); 0 means one worker per
 * hardware thread. Sweep results are identical for any value — the
 * engine collects results in input order (measure/parallel.hh).
 */
inline int
jobsArg(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--jobs" && i + 1 < argc)
            return std::atoi(argv[i + 1]);
        if (arg.rfind("--jobs=", 0) == 0)
            return std::atoi(arg.c_str() + 7);
    }
    return 1;
}

/** One `--flag VALUE` / `--flag=VALUE` string argument, or "". */
inline std::string
stringArg(int argc, char **argv, const std::string &flag)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == flag && i + 1 < argc)
            return argv[i + 1];
        if (arg.rfind(flag + "=", 0) == 0)
            return arg.substr(flag.size() + 1);
    }
    return "";
}

/** True when @p flag appears as `--flag`, `--flag VALUE` or `--flag=VALUE`. */
inline bool
hasFlag(int argc, char **argv, const std::string &flag)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == flag || arg.rfind(flag + "=", 0) == 0)
            return true;
    }
    return false;
}

/** Bad command line: one-line error on stderr, exit 2, no work done. */
[[noreturn]] inline void
flagError(const std::string &message)
{
    std::fprintf(stderr, "%s: %s\n", experimentId().c_str(),
                 message.c_str());
    std::exit(2);
}

/**
 * Fault-tolerance settings from the standard bench flags:
 *
 *   --max-retries N     retry each failing job up to N extra times
 *   --job-timeout-ms N  per-job wall-clock budget across retries
 *   --checkpoint PATH   append-only journal; rerun with the same PATH
 *                       (and the same sweep settings) to resume
 *
 * All default off, which keeps the strict first-error-aborts behavior
 * of the measure/ sweeps. A malformed value exits 2 (flagError()).
 */
inline measure::ResilienceConfig
resilienceArgs(int argc, char **argv)
{
    measure::ResilienceConfig rc;
    if (hasFlag(argc, argv, "--max-retries")) {
        const std::string text = stringArg(argc, argv, "--max-retries");
        if (text.empty() || text.size() > 4 ||
            text.find_first_not_of("0123456789") != std::string::npos)
            flagError("--max-retries needs a whole number up to 9999, "
                      "got '" + text + "'");
        rc.maxRetries = std::stoi(text);
    }
    if (hasFlag(argc, argv, "--job-timeout-ms")) {
        const std::string text = stringArg(argc, argv, "--job-timeout-ms");
        char *end = nullptr;
        rc.jobTimeoutMs = std::strtod(text.c_str(), &end);
        if (text.empty() || *end != '\0' || !(rc.jobTimeoutMs >= 0.0) ||
            !std::isfinite(rc.jobTimeoutMs))
            flagError("--job-timeout-ms needs a non-negative number, got '" +
                      text + "'");
    }
    rc.checkpointPath = stringArg(argc, argv, "--checkpoint");
    if (hasFlag(argc, argv, "--checkpoint") && rc.checkpointPath.empty())
        flagError("--checkpoint needs a journal path");
    return rc;
}

/**
 * Standard bench start-up: logging flags, --out-dir, MEMSENSE_FAULTS
 * (the deterministic fault-injection harness, util/fault_injection.hh),
 * and the observability switches (docs/observability.md):
 *
 *   --trace PATH  record a Chrome trace_event JSON of every sweep
 *                 span to PATH (open in chrome://tracing or Perfetto)
 *   --metrics     write `<out-dir>/<exp>.metrics.json` with counters,
 *                 gauges, span stats, and value distributions
 *
 * A bad --out-dir (empty, missing, or not a directory) or a malformed
 * fault-tolerance flag exits 2 here, before any simulation runs.
 */
inline void
benchInit(int argc, char **argv)
{
    quietLogs(argc, argv);
    if (argc > 0 && argv[0] && argv[0][0]) {
        std::string exe = argv[0];
        std::size_t slash = exe.find_last_of('/');
        experimentId() =
            slash == std::string::npos ? exe : exe.substr(slash + 1);
    }
    outDir() = stringArg(argc, argv, "--out-dir");
    std::error_code ec;
    if (hasFlag(argc, argv, "--out-dir") &&
        !std::filesystem::is_directory(outDir(), ec))
        flagError("--out-dir '" + outDir() + "' is not a directory");
    resilienceArgs(argc, argv); // validated now; drivers re-read it
    bool observing = false;
    const std::string trace_path = stringArg(argc, argv, "--trace");
    if (!trace_path.empty()) {
        trace::startTracing(trace_path);
        observing = true;
    }
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--metrics") {
            trace::setStatsEnabled(true);
            observing = true;
        }
    }
    if (observing)
        std::atexit(flushObservability);
    fault::configureFromEnv();
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
