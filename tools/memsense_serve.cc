/**
 * @file
 * memsense_serve — long-running fault-tolerant evaluation server.
 *
 * Serves the JSON-lines request schema of memsense_eval over TCP,
 * Unix-domain sockets, and/or stdin/stdout, through the memoizing
 * serve::Evaluator, with admission control, per-request deadlines,
 * graceful degradation, and drain-on-signal (see docs/serving.md):
 *
 *     memsense_serve --tcp-port 8321
 *     memsense_serve --unix /tmp/memsense.sock --workers 4
 *     memsense_serve --stdio < requests.jsonl
 *
 * SIGINT/SIGTERM stop accepting, drain the queue (bounded by
 * --drain-deadline-ms), answer everything still owed a reply, flush
 * --metrics/--stats-json artifacts, and exit 0. Exit 1 means the
 * configuration was unusable (bad flags, bind failure).
 *
 * With --stdio and no socket transports the server also exits once the
 * pipe is consumed and every reply is written, so it composes in shell
 * pipelines like the batch tool but with the serving semantics
 * (deadlines, shedding) active.
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <fstream>
#include <iostream>
#include <thread>

#include "measure/metrics.hh"
#include "serve/server.hh"
#include "serve/transport.hh"
#include "util/cli.hh"
#include "util/error.hh"
#include "util/trace.hh"

using namespace memsense;

namespace
{

// memsense-lint: allow(mutable-global-state): the signal handler can
// only reach process-global state; one lock-free flag, set by the
// handler, polled by the main watch loop.
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
    CliParser cli("memsense_serve",
                  "serve JSON-lines solve requests over TCP, Unix "
                  "sockets, or stdio with admission control and "
                  "deadlines");
    cli.addInt("tcp-port", -1,
               "listen on this TCP port (0 = ephemeral; the resolved "
               "port is printed to stderr)");
    cli.addString("tcp-host", "127.0.0.1", "TCP bind address");
    cli.addString("unix", "", "listen on this Unix-domain socket path");
    cli.addBool("stdio", "serve one connection over stdin/stdout");
    cli.addInt("workers", 2, "solver worker threads");
    cli.addInt("max-queue", 256, "admission queue depth cap");
    cli.addInt("max-inflight-kb", 4096,
               "admission cap on queued request bytes (KiB)");
    cli.addInt("max-batch", 16,
               "requests one worker pass coalesces into a single "
               "evaluator batch (1 = no batching)");
    cli.addDouble("batch-linger-ms", 0.0,
                  "wait this long for a partial batch to fill before "
                  "dispatching (0 = dispatch immediately)");
    cli.addInt("max-queue-per-client", 0,
               "per-client queued-request quota; over-quota requests "
               "get quota_exceeded (0 = no quota)");
    cli.addInt("max-inflight-kb-per-client", 0,
               "per-client queued-bytes quota in KiB (0 = no quota)");
    cli.addInt("max-line-kb", 64, "per-request line size cap (KiB)");
    cli.addInt("max-connections", 64, "concurrent connection cap");
    cli.addDouble("default-deadline-ms", 0.0,
                  "deadline applied to requests that carry none "
                  "(0 = none)");
    cli.addDouble("drain-deadline-ms", 2000.0,
                  "queue drain budget after SIGINT/SIGTERM");
    cli.addBool("allow-stale",
                "answer shed requests from the coarse stale cache, "
                "flagged degraded (requests can opt out)");
    cli.addInt("cache-capacity", 1 << 16, "LRU cache entries");
    cli.addInt("cache-shards", 8, "cache shards (rounded to 2^k)");
    cli.addString("metrics", "",
                  "write a metrics JSON snapshot here on exit");
    cli.addString("stats-json", "",
                  "write the server counter ledger here on exit");
    cli.addBool("stats", "print the counter summary to stderr on exit");
    if (!cli.parse(argc, argv))
        return cli.getBool("help") ? 0 : 1;

    try {
        installSignalHandlers();

        serve::ServerOptions opts;
        opts.workers = cli.getInt("workers");
        opts.maxConnections = cli.getInt("max-connections");
        requireConfig(cli.getInt("max-queue") >= 1,
                      "--max-queue must be >= 1");
        opts.maxQueueDepth =
            static_cast<std::size_t>(cli.getInt("max-queue"));
        requireConfig(cli.getInt("max-inflight-kb") >= 1,
                      "--max-inflight-kb must be >= 1");
        opts.maxInflightBytes =
            static_cast<std::size_t>(cli.getInt("max-inflight-kb")) *
            1024u;
        requireConfig(cli.getInt("max-line-kb") >= 1,
                      "--max-line-kb must be >= 1");
        opts.maxLineBytes =
            static_cast<std::size_t>(cli.getInt("max-line-kb")) * 1024u;
        requireConfig(cli.getInt("max-batch") >= 1,
                      "--max-batch must be >= 1");
        opts.maxBatch =
            static_cast<std::size_t>(cli.getInt("max-batch"));
        opts.batchLingerMs = cli.getDouble("batch-linger-ms");
        requireConfig(cli.getInt("max-queue-per-client") >= 0,
                      "--max-queue-per-client must be >= 0");
        opts.maxQueuePerClient = static_cast<std::size_t>(
            cli.getInt("max-queue-per-client"));
        requireConfig(cli.getInt("max-inflight-kb-per-client") >= 0,
                      "--max-inflight-kb-per-client must be >= 0");
        opts.maxInflightBytesPerClient =
            static_cast<std::size_t>(
                cli.getInt("max-inflight-kb-per-client")) *
            1024u;
        opts.defaultDeadlineMs = cli.getDouble("default-deadline-ms");
        opts.drainDeadlineMs = cli.getDouble("drain-deadline-ms");
        opts.allowStale = cli.getBool("allow-stale");
        requireConfig(cli.getInt("cache-capacity") >= 1,
                      "--cache-capacity must be >= 1");
        opts.eval.cache.capacity =
            static_cast<std::size_t>(cli.getInt("cache-capacity"));
        opts.eval.cache.shards = cli.getInt("cache-shards");

        const bool want_metrics = !cli.getString("metrics").empty();
        if (want_metrics)
            trace::setStatsEnabled(true);

        serve::StreamLimits stream_limits;
        stream_limits.maxLineBytes = opts.maxLineBytes;

        serve::Server server(opts);
        const bool use_stdio = cli.getBool("stdio");
        bool any_socket = false;
        if (cli.getInt("tcp-port") >= 0) {
            net::Listener l = net::listenTcp(cli.getString("tcp-host"),
                                             cli.getInt("tcp-port"));
            std::cerr << "memsense_serve: listening on " << l.address
                      << "\n";
            server.addTransport(
                serve::makeSocketTransport(std::move(l),
                                           stream_limits));
            any_socket = true;
        }
        if (!cli.getString("unix").empty()) {
            net::Listener l = net::listenUnix(cli.getString("unix"));
            std::cerr << "memsense_serve: listening on " << l.address
                      << "\n";
            server.addTransport(
                serve::makeSocketTransport(std::move(l),
                                           stream_limits));
            any_socket = true;
        }
        if (use_stdio)
            server.addTransport(serve::makeStdioTransport(stream_limits));
        requireConfig(any_socket || use_stdio,
                      "no transport: pass --tcp-port, --unix, and/or "
                      "--stdio");

        server.start();

        // Watch loop: wait for a shutdown signal — or, in pure stdio
        // mode, for the pipe to be consumed and answered.
        const bool exit_on_idle = use_stdio && !any_socket;
        while (!gStopRequested.load(std::memory_order_relaxed)) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
            if (exit_on_idle &&
                server.stats().connections > 0 &&
                server.activeConnectionCount() == 0)
                break;
        }
        server.stop();

        const serve::ServerStats stats = server.stats();
        if (want_metrics) {
            measure::MetricsRegistry::instance().flushToFile(
                cli.getString("metrics"), "memsense_serve");
        }
        if (!cli.getString("stats-json").empty()) {
            std::ofstream out(cli.getString("stats-json"));
            requireConfig(static_cast<bool>(out),
                          "cannot open stats file " +
                              cli.getString("stats-json"));
            out << stats.toJson() << "\n";
        }
        if (cli.getBool("stats"))
            std::cerr << stats.describe() << "\n";
        return 0;
    } catch (const std::exception &e) {
        std::cerr << "memsense_serve: " << e.what() << "\n";
        return 1;
    }
}
