/**
 * @file
 * memsense_loadgen — load generator for memsense_serve.
 *
 * Replays a fixture file of JSON-lines requests against a running
 * server over N concurrent connections, injecting fresh ids (and
 * optionally deadlines), and reports reply classification counts,
 * latency percentiles, and the shed rate:
 *
 *     memsense_loadgen --tcp-port 8321 --requests fixtures.jsonl \
 *         --connections 8 --total 2000 --deadline-ms 50
 *     memsense_loadgen --unix /tmp/memsense.sock --rate 500 ...
 *
 * Dropped connections are re-dialed under a bounded exponential
 * backoff; the loadgen never hangs on a flaky server. Exit 0 when the
 * run completed and every sent request was classified; exit 1 on
 * unusable configuration; exit 2 when the report ledger does not add
 * up (a server bug worth failing CI over).
 */

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "serve/loadgen.hh"
#include "util/cli.hh"
#include "util/error.hh"
#include "util/socket.hh"

using namespace memsense;

namespace
{

/** Exit code when sent != classified (docs/serving.md). */
constexpr int kExitLedgerMismatch = 2;

std::vector<std::string>
readFixtures(std::istream &in)
{
    std::vector<std::string> fixtures;
    std::string line;
    while (std::getline(in, line)) {
        bool blank = true;
        for (char c : line)
            if (c != ' ' && c != '\t' && c != '\r')
                blank = false;
        if (!blank)
            fixtures.push_back(line);
    }
    return fixtures;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    CliParser cli("memsense_loadgen",
                  "replay JSON-lines requests against memsense_serve "
                  "and report latency/shed statistics");
    cli.addString("requests", "-",
                  "fixture JSON-lines file (- reads stdin)");
    cli.addInt("tcp-port", -1, "connect to this TCP port");
    cli.addString("tcp-host", "127.0.0.1", "TCP server address");
    cli.addString("unix", "", "connect to this Unix-domain socket");
    cli.addInt("connections", 1, "concurrent client connections");
    cli.addInt("total", 100, "total requests across all connections");
    cli.addDouble("deadline-ms", 0.0,
                  "inject this deadline into every request (0 = none)");
    cli.addDouble("rate", 0.0,
                  "target aggregate request rate per second "
                  "(0 = closed loop)");
    cli.addDouble("clients-skewed", 0.0,
                  "fraction of --total driven by one hot client "
                  "connection (0 = uniform; exercises per-client "
                  "quotas)");
    cli.addInt("recv-timeout-ms", 5000, "per-reply wait budget");
    cli.addInt("reconnect-attempts", 5,
               "dial attempts per reconnect sequence");
    cli.addString("report-json", "",
                  "write the JSON report here as well as stdout");
    if (!cli.parse(argc, argv))
        return cli.getBool("help") ? 0 : 1;

    try {
        serve::LoadgenOptions opts;
        opts.connections = cli.getInt("connections");
        requireConfig(cli.getInt("total") >= 1,
                      "--total must be >= 1");
        opts.totalRequests =
            static_cast<std::uint64_t>(cli.getInt("total"));
        opts.deadlineMs = cli.getDouble("deadline-ms");
        opts.targetRatePerSec = cli.getDouble("rate");
        opts.hotClientFraction = cli.getDouble("clients-skewed");
        opts.recvTimeoutMs = cli.getInt("recv-timeout-ms");
        opts.reconnect.maxAttempts = cli.getInt("reconnect-attempts");

        const std::string path = cli.getString("requests");
        if (path == "-") {
            opts.fixtures = readFixtures(std::cin);
        } else {
            std::ifstream in(path);
            requireConfig(static_cast<bool>(in),
                          "cannot open request file " + path);
            opts.fixtures = readFixtures(in);
        }

        const int tcp_port = cli.getInt("tcp-port");
        const std::string tcp_host = cli.getString("tcp-host");
        const std::string unix_path = cli.getString("unix");
        requireConfig(tcp_port >= 0 || !unix_path.empty(),
                      "no server: pass --tcp-port or --unix");
        serve::StreamLimits limits;
        serve::Dialer dial = [&]() {
            net::FdHandle fd = unix_path.empty()
                                   ? net::connectTcp(tcp_host, tcp_port)
                                   : net::connectUnix(unix_path);
            return serve::makeSocketStream(std::move(fd), limits,
                                           "loadgen");
        };

        const serve::LoadReport report = serve::runLoadgen(dial, opts);
        std::cout << report.toJson() << "\n";
        std::cerr << report.describe() << "\n";
        if (!cli.getString("report-json").empty()) {
            std::ofstream out(cli.getString("report-json"));
            requireConfig(static_cast<bool>(out),
                          "cannot open report file " +
                              cli.getString("report-json"));
            out << report.toJson() << "\n";
        }
        if (report.classified() != report.sent) {
            std::cerr << "memsense_loadgen: ledger mismatch: sent "
                      << report.sent << " != classified "
                      << report.classified() << "\n";
            return kExitLedgerMismatch;
        }
        return 0;
    } catch (const std::exception &e) {
        std::cerr << "memsense_loadgen: " << e.what() << "\n";
        return 1;
    }
}
