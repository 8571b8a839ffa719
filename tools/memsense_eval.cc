/**
 * @file
 * memsense_eval — batch evaluation service CLI.
 *
 * Reads JSON-lines solve requests (see src/serve/request.hh for the
 * schema), evaluates them through the memoizing serve::Evaluator, and
 * writes one JSON result line per request to stdout, in input order.
 * Per-request failures (malformed lines, out-of-domain parameters,
 * non-converging solves) become error result lines; the process exits
 * 0 whenever the batch itself ran. The output is byte-identical for
 * any --jobs value and any cache temperature (see docs/serving.md).
 *
 *     memsense_eval --requests batch.jsonl --jobs 8
 *     memsense_eval --requests - < batch.jsonl   # stdin
 *
 * SIGINT/SIGTERM interrupt the batch cooperatively: the run stops
 * reading, evaluates and emits what was already ingested, still
 * flushes `--metrics`/`--stats`, and exits with code 3 so callers can
 * tell "interrupted but flushed" from success (0) and hard errors (1).
 */

#include <atomic>
#include <csignal>
#include <fstream>
#include <iostream>
#include <string>

#include "measure/metrics.hh"
#include "serve/service.hh"
#include "util/cli.hh"
#include "util/error.hh"
#include "util/trace.hh"

using namespace memsense;

namespace
{

/** Exit code of an interrupted-but-flushed run (docs/serving.md). */
constexpr int kExitInterrupted = 3;

// memsense-lint: allow(mutable-global-state): the signal handler can
// only reach process-global state; one lock-free flag, set by the
// handler, polled cooperatively by runEvalService.
std::atomic<bool> gStopRequested{false};

extern "C" void
onShutdownSignal(int)
{
    // Async-signal-safe: a lock-free atomic store and nothing else.
    gStopRequested.store(true, std::memory_order_relaxed);
}

void
installSignalHandlers()
{
    struct sigaction sa = {};
    sa.sa_handler = onShutdownSignal;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    CliParser cli("memsense_eval",
                  "batch-evaluate JSON-lines solve requests through "
                  "the memoizing evaluator");
    cli.addString("requests", "-",
                  "JSON-lines request file (- reads stdin)");
    cli.addInt("jobs", 1,
               "worker threads for uncached solves (0 = hardware "
               "threads); results are byte-identical for any value");
    cli.addInt("repeat", 1,
               "evaluate the batch N times against the same cache, "
               "emitting only the final (warm) pass");
    cli.addInt("cache-capacity", 1 << 16, "LRU cache entries");
    cli.addInt("cache-shards", 8, "cache shards (rounded to 2^k)");
    cli.addInt("max-retries", 0,
               "extra solve attempts after the first (transient "
               "failures only)");
    cli.addString("metrics", "",
                  "write a metrics JSON snapshot to this file");
    cli.addBool("stats", "print the run summary to stderr");
    if (!cli.parse(argc, argv))
        return cli.getBool("help") ? 0 : 1;

    try {
        installSignalHandlers();
        serve::ServiceOptions opts;
        opts.stop = &gStopRequested;
        opts.eval.jobs = cli.getInt("jobs");
        opts.repeat = cli.getInt("repeat");
        requireConfig(cli.getInt("cache-capacity") >= 1,
                      "--cache-capacity must be >= 1");
        opts.eval.cache.capacity =
            static_cast<std::size_t>(cli.getInt("cache-capacity"));
        opts.eval.cache.shards = cli.getInt("cache-shards");
        requireConfig(cli.getInt("max-retries") >= 0,
                      "--max-retries must be >= 0");
        opts.eval.resilience.retry.maxAttempts =
            cli.getInt("max-retries") + 1;

        const bool want_metrics = !cli.getString("metrics").empty();
        if (want_metrics)
            trace::setStatsEnabled(true);

        serve::ServiceSummary summary;
        std::string path = cli.getString("requests");
        if (path == "-") {
            summary = serve::runEvalService(std::cin, std::cout, opts);
        } else {
            std::ifstream in(path);
            requireConfig(static_cast<bool>(in),
                          "cannot open request file " + path);
            summary = serve::runEvalService(in, std::cout, opts);
        }

        if (want_metrics) {
            measure::MetricsRegistry::instance().flushToFile(
                cli.getString("metrics"), "memsense_eval");
        }
        if (cli.getBool("stats"))
            std::cerr << summary.describe() << "\n";
        if (summary.interrupted) {
            std::cerr << "memsense_eval: interrupted; partial results "
                         "and metrics flushed\n";
            return kExitInterrupted;
        }
        return 0;
    } catch (const std::exception &e) {
        std::cerr << "memsense_eval: " << e.what() << "\n";
        return 1;
    }
}
