/**
 * @file
 * Performance suite driver: one command that measures the repo.
 *
 * Runs the fixed end-to-end reproduction configs (fig03_cpi_fits and
 * fig07_queuing_delay, `--fast --quiet`, fixed seeds baked into the
 * drivers) at `--jobs 1` and `--jobs N`, separating the cold first
 * run from K warm repeats (median + MAD of the warm runs), plus the
 * google-benchmark microbench kernels. One extra instrumented run per
 * config collects the per-phase wall-time breakdown and the sweep
 * point count from the metrics registry (`<exp>.metrics.json`,
 * docs/observability.md). Everything lands in one schema-versioned
 * document:
 *
 *     {
 *       "schema": "memsense.bench.v1",
 *       "repeats": 3,
 *       "end_to_end": { "fig03_cpi_fits.jobs1": {
 *           "cold_s": ..., "warm_median_s": ..., "warm_mad_s": ...,
 *           "sweep_points": 24, "throughput_points_per_s": ...,
 *           "phases_ms": { "sweep": ..., "report": ... } }, ... },
 *       "microbench": { "BM_CacheLookup/2": { "median_ns": ... } },
 *       "baseline_pre_pr": { ...carried forward verbatim... }
 *     }
 *
 * The committed copy (BENCH_memsense.json at the repo root) is the
 * perf trajectory: refresh it with scripts/check_perf.sh, which also
 * diffs a fresh run against the committed one and flags regressions.
 * The "baseline_pre_pr" section is carried forward verbatim from the
 * file named by --carry-baseline so the pre-campaign reference never
 * gets overwritten by a refresh.
 *
 * Wall-clock numbers are machine- and load-dependent; the suite
 * reports medians to shave scheduler noise, but cross-machine
 * comparisons are only meaningful within one BENCH file's history.
 *
 * `--help` prints the flags and exits 0; an unknown or malformed flag,
 * or a bad `--jobs-list` entry, exits 2. Neither runs anything or
 * writes a file.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "serve/server.hh"
#include "serve/transport.hh"
#include "util/cli.hh"
#include "util/error.hh"
#include "util/string_util.hh"

namespace
{

double
medianOf(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
madOf(const std::vector<double> &v)
{
    const double med = medianOf(v);
    std::vector<double> dev;
    dev.reserve(v.size());
    for (double x : v)
        dev.push_back(std::abs(x - med));
    return medianOf(dev);
}

/** Format a double with enough digits for a perf log (not %.17g). */
std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

/** Run a shell command, discarding output; returns wall seconds. */
double
timedRun(const std::string &cmd)
{
    // memsense-lint: allow(no-nondeterminism): this driver MEASURES
    // wall time; the sim results it times stay seed-deterministic
    const auto start = std::chrono::steady_clock::now();
    const int rc = std::system((cmd + " > /dev/null 2>&1").c_str());
    // memsense-lint: allow(no-nondeterminism): wall-time measurement
    const auto end = std::chrono::steady_clock::now();
    if (rc != 0)
        throw memsense::ConfigError("command failed (" +
                                     std::to_string(rc) + "): " + cmd);
    return std::chrono::duration<double>(end - start).count();
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return "";
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/**
 * Pull `"key": <number>` out of a flat JSON section. This is not a
 * JSON parser — it only needs to read the documents this repo writes
 * (sorted keys, one scalar per key, no escapes in the keys we ask
 * for), which keeps the suite dependency-free.
 */
bool
extractNumber(const std::string &doc, const std::string &key,
              double &value_out)
{
    const std::string needle = "\"" + key + "\":";
    const std::size_t pos = doc.find(needle);
    if (pos == std::string::npos)
        return false;
    value_out = std::strtod(doc.c_str() + pos + needle.size(), nullptr);
    return true;
}

/**
 * Extract the value of `"section": { ... }` with brace matching,
 * returning the braces too; "" when absent. Used to carry the
 * baseline_pre_pr object forward verbatim and to scope gauge scans
 * to the "gauges" section.
 */
std::string
extractObject(const std::string &doc, const std::string &section)
{
    const std::string needle = "\"" + section + "\":";
    std::size_t pos = doc.find(needle);
    if (pos == std::string::npos)
        return "";
    pos = doc.find('{', pos + needle.size());
    if (pos == std::string::npos)
        return "";
    int depth = 0;
    for (std::size_t i = pos; i < doc.size(); ++i) {
        if (doc[i] == '{')
            ++depth;
        else if (doc[i] == '}' && --depth == 0)
            return doc.substr(pos, i - pos + 1);
    }
    return "";
}

/** One end-to-end measurement target. */
struct E2eConfig
{
    std::string exe;    ///< sibling binary name
    std::string args;   ///< fixed arguments (seeds live in the driver)
    int jobs = 1;
};

struct E2eResult
{
    std::string key;
    std::string command;
    double coldS = 0.0;
    std::vector<double> warmS;
    double sweepPoints = 0.0;
    std::vector<std::pair<std::string, double>> phasesMs;
};

/** Scan `"phase.<name>.wall_ms": v` gauges out of a metrics doc. */
std::vector<std::pair<std::string, double>>
extractPhases(const std::string &metricsDoc)
{
    std::vector<std::pair<std::string, double>> phases;
    const std::string gauges = extractObject(metricsDoc, "gauges");
    std::size_t pos = 0;
    const std::string prefix = "\"phase.";
    const std::string suffix = ".wall_ms\":";
    while ((pos = gauges.find(prefix, pos)) != std::string::npos) {
        const std::size_t nameStart = pos + prefix.size();
        const std::size_t sufPos = gauges.find(suffix, nameStart);
        if (sufPos == std::string::npos)
            break;
        const std::string name = gauges.substr(nameStart,
                                               sufPos - nameStart);
        const double v = std::strtod(
            gauges.c_str() + sufPos + suffix.size(), nullptr);
        phases.emplace_back(name, v);
        pos = sufPos + suffix.size();
    }
    return phases;
}

E2eResult
runE2e(const std::string &binDir, const E2eConfig &cfg, int repeats,
       const std::string &scratch)
{
    E2eResult r;
    r.key = cfg.exe + ".jobs" + std::to_string(cfg.jobs);
    const std::string base = binDir + "/" + cfg.exe + " " + cfg.args +
                             " --jobs " + std::to_string(cfg.jobs) +
                             " --out-dir " + scratch;
    r.command = cfg.exe + " " + cfg.args + " --jobs " +
                std::to_string(cfg.jobs);

    std::fprintf(stderr, "perf_suite: %s (cold + %d warm)\n",
                 r.command.c_str(), repeats);
    r.coldS = timedRun(base);
    for (int i = 0; i < repeats; ++i)
        r.warmS.push_back(timedRun(base));

    // One instrumented run for the phase breakdown and point count.
    // Kept out of the timed set: metrics collection is cheap but not
    // free, and mixing it in would bias the medians.
    timedRun(base + " --metrics");
    const std::string metrics =
        readFile(scratch + "/" + cfg.exe + ".metrics.json");
    double points = 0.0;
    if (extractNumber(metrics, "measure.jobs_run", points))
        r.sweepPoints = points;
    r.phasesMs = extractPhases(metrics);
    return r;
}

void
appendE2eJson(std::ostringstream &out, const E2eResult &r, bool last)
{
    const double warmMedian = medianOf(r.warmS);
    out << "    \"" << r.key << "\": {\n"
        << "      \"command\": \"" << r.command << "\",\n"
        << "      \"cold_s\": " << num(r.coldS) << ",\n"
        << "      \"warm_runs_s\": [";
    for (std::size_t i = 0; i < r.warmS.size(); ++i)
        out << (i ? ", " : "") << num(r.warmS[i]);
    out << "],\n"
        << "      \"warm_median_s\": " << num(warmMedian) << ",\n"
        << "      \"warm_mad_s\": " << num(madOf(r.warmS)) << ",\n"
        << "      \"sweep_points\": " << num(r.sweepPoints) << ",\n"
        << "      \"throughput_points_per_s\": "
        << num(warmMedian > 0.0 ? r.sweepPoints / warmMedian : 0.0)
        << ",\n"
        << "      \"phases_ms\": {";
    for (std::size_t i = 0; i < r.phasesMs.size(); ++i)
        out << (i ? ", " : "") << "\"" << r.phasesMs[i].first
            << "\": " << num(r.phasesMs[i].second);
    out << "}\n"
        << "    }" << (last ? "\n" : ",\n");
}

/**
 * Run perf_microbench with JSON output and distill the aggregate
 * rows: for each kernel, its `_median` and `_mad` real-time values.
 */
std::vector<std::pair<std::string, std::pair<double, double>>>
runMicrobench(const std::string &binDir, const std::string &filter,
              const std::string &scratch)
{
    const std::string jsonPath = scratch + "/microbench.json";
    std::string cmd = binDir + "/perf_microbench" +
                      " --benchmark_format=json --benchmark_out=" +
                      jsonPath + " --benchmark_out_format=json";
    if (!filter.empty())
        cmd += " --benchmark_filter='" + filter + "'";
    std::fprintf(stderr, "perf_suite: perf_microbench%s\n",
                 filter.empty() ? ""
                                : (" (filter " + filter + ")").c_str());
    timedRun(cmd);

    // google-benchmark JSON: one object per row in "benchmarks"; the
    // aggregate rows carry "name": "<bench>_<stat>" and "real_time".
    std::vector<std::pair<std::string, std::pair<double, double>>> out;
    const std::string doc = readFile(jsonPath);
    std::size_t pos = 0;
    while ((pos = doc.find("\"name\":", pos)) != std::string::npos) {
        const std::size_t q1 = doc.find('"', pos + 7);
        const std::size_t q2 = doc.find('"', q1 + 1);
        if (q1 == std::string::npos || q2 == std::string::npos)
            break;
        std::string name = doc.substr(q1 + 1, q2 - q1 - 1);
        pos = q2 + 1;
        const bool isMedian =
            name.size() > 7 &&
            name.compare(name.size() - 7, 7, "_median") == 0;
        const bool isMad =
            name.size() > 4 &&
            name.compare(name.size() - 4, 4, "_mad") == 0;
        if (!isMedian && !isMad)
            continue;
        const std::size_t next = doc.find("\"name\":", pos);
        const std::string row = doc.substr(
            pos, next == std::string::npos ? doc.size() - pos
                                          : next - pos);
        double rt = 0.0;
        if (!extractNumber(row, "real_time", rt))
            continue;
        name.erase(name.size() - (isMedian ? 7 : 4));
        // Strip the "/repeats:K" suffix benchmark appends.
        const std::size_t rep = name.find("/repeats:");
        if (rep != std::string::npos)
            name.erase(rep);
        auto it = std::find_if(out.begin(), out.end(),
                               [&](const auto &e) {
                                   return e.first == name;
                               });
        if (it == out.end()) {
            out.emplace_back(name, std::make_pair(0.0, 0.0));
            it = out.end() - 1;
        }
        (isMedian ? it->second.first : it->second.second) = rt;
    }
    return out;
}

// ---------------------------------------------------------------------
// serve_batch: the server's worker path with and without batching.

/** Fixture shape of the serve_batch microbench: 16 connections each
 *  replaying the same 64 unique operating points — cross-client
 *  duplicates in flight at the same instant, the mix batching is
 *  built for. The parallel reader threads outpace the two workers, so
 *  the admission queue actually holds multi-request batches. */
constexpr int kServeBatchUnique = 64;
constexpr int kServeBatchConns = 16;
constexpr int kServeBatchTotal = kServeBatchUnique * kServeBatchConns;

/**
 * One timed pass: a fresh (cold-cache) in-process server, every
 * connection's requests written up front, then every reply drained.
 * Returns requests per wall-second. Admission bounds are raised far
 * above the fixture so nothing sheds — the pass measures the
 * dequeue/solve/reply pipeline, not admission control.
 */
double
serveBatchPassRps(std::size_t max_batch, double linger_ms,
                  int eval_jobs)
{
    using namespace memsense::serve;
    ServerOptions opts;
    opts.workers = 2;
    opts.pollMs = 1;
    opts.maxQueueDepth = kServeBatchTotal * 2;
    opts.maxInflightBytes = 64u << 20;
    opts.maxBatch = max_batch;
    opts.batchLingerMs = linger_ms;
    opts.eval.jobs = eval_jobs;
    Server server(opts);
    auto transport_owned = std::make_unique<InProcessTransport>();
    InProcessTransport *transport = transport_owned.get();
    server.addTransport(std::move(transport_owned));
    server.start();
    std::vector<InProcessClient> clients;
    clients.reserve(kServeBatchConns);
    for (int c = 0; c < kServeBatchConns; ++c)
        clients.push_back(transport->connect());

    std::vector<std::string> lines;
    lines.reserve(kServeBatchTotal);
    for (int c = 0; c < kServeBatchConns; ++c)
        for (int shape = 0; shape < kServeBatchUnique; ++shape)
            lines.push_back(
                "{\"id\":\"b" + std::to_string(c) + "-" +
                std::to_string(shape) +
                "\",\"workload\":{\"mpki\":" +
                std::to_string(5.0 + 0.25 * shape) + "}}");

    // memsense-lint: allow(no-nondeterminism): this driver MEASURES
    // wall time; the solves it times stay deterministic
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kServeBatchTotal; ++i)
        clients[i / kServeBatchUnique].send(lines[i]);
    std::string reply;
    for (InProcessClient &client : clients) {
        for (int i = 0; i < kServeBatchUnique; ++i) {
            if (client.recv(reply, 30000) != LineStream::Read::Line)
                throw memsense::ConfigError(
                    "serve_batch: a reply never arrived");
        }
    }
    // memsense-lint: allow(no-nondeterminism): wall-time measurement
    const auto end = std::chrono::steady_clock::now();
    server.stop();
    const double seconds =
        std::chrono::duration<double>(end - start).count();
    return seconds > 0.0 ? kServeBatchTotal / seconds : 0.0;
}

struct ServeBatchResult
{
    std::vector<double> baselineRps; ///< maxBatch=1: one job per pass
    std::vector<double> batchedRps;  ///< maxBatch=32: coalesced passes
};

ServeBatchResult
runServeBatch(int repeats)
{
    std::fprintf(stderr,
                 "perf_suite: serve_batch (%d reqs, %d unique, "
                 "%d reps/mode)\n",
                 kServeBatchTotal, kServeBatchUnique, repeats);
    ServeBatchResult r;
    // Interleave the modes so machine-load drift hits both equally.
    for (int i = 0; i < repeats; ++i) {
        r.baselineRps.push_back(serveBatchPassRps(1, 0.0, 1));
        r.batchedRps.push_back(serveBatchPassRps(32, 0.0, 1));
    }
    return r;
}

void
appendServeBatchJson(std::ostringstream &out, const ServeBatchResult &r)
{
    const double base = medianOf(r.baselineRps);
    const double batched = medianOf(r.batchedRps);
    out << "  \"serve_batch\": {\n"
        << "    \"requests\": " << kServeBatchTotal << ",\n"
        << "    \"unique_shapes\": " << kServeBatchUnique << ",\n"
        << "    \"baseline_runs_rps\": [";
    for (std::size_t i = 0; i < r.baselineRps.size(); ++i)
        out << (i ? ", " : "") << num(r.baselineRps[i]);
    out << "],\n"
        << "    \"batched_runs_rps\": [";
    for (std::size_t i = 0; i < r.batchedRps.size(); ++i)
        out << (i ? ", " : "") << num(r.batchedRps[i]);
    out << "],\n"
        << "    \"baseline_rps\": " << num(base) << ",\n"
        << "    \"batched_rps\": " << num(batched) << ",\n"
        << "    \"batched_speedup\": "
        << num(base > 0.0 ? batched / base : 0.0) << "\n"
        << "  },\n";
}

void
declareFlags(memsense::CliParser &cli)
{
    cli.addInt("repeats", 3, "warm repeats per end-to-end config");
    cli.addString("jobs-list", "1,2", "comma-separated --jobs values");
    cli.addString("bin-dir", "",
                  "directory of the bench binaries (default: this "
                  "binary's directory)");
    cli.addString("out", "BENCH_memsense.json", "output JSON path");
    cli.addString("carry-baseline", "",
                  "JSON file whose baseline_pre_pr section is carried "
                  "forward");
    cli.addBool("skip-microbench", "skip the google-benchmark kernels");
    cli.addString("benchmark-filter", "", "microbench filter regex");
}

void
run(const memsense::CliParser &cli, const std::string &self)
{
    using namespace memsense;
    std::string binDir = cli.getString("bin-dir");
    if (binDir.empty()) {
        const std::size_t slash = self.find_last_of('/');
        binDir = slash == std::string::npos ? "." : self.substr(0, slash);
    }
    const int repeats = std::max(1, cli.getInt("repeats"));
    const std::string jobsList = cli.getString("jobs-list");
    const std::string outPath = cli.getString("out");
    const std::string carryPath = cli.getString("carry-baseline");
    const std::string filter = cli.getString("benchmark-filter");
    const bool skipMicro = cli.getBool("skip-microbench");

    // Check every --jobs-list entry before anything touches the disk.
    std::vector<E2eConfig> configs;
    for (const std::string &tok : split(jobsList, ',')) {
        char *end = nullptr;
        const long j = std::strtol(tok.c_str(), &end, 10);
        requireConfig(!tok.empty() && *end == '\0' && j >= 1 &&
                          j <= std::numeric_limits<int>::max(),
                      "--jobs-list entries must be whole numbers >= 1, "
                      "got '" + tok + "'");
        const int jobs = static_cast<int>(j);
        configs.push_back({"fig03_cpi_fits", "--fast --quiet", jobs});
        configs.push_back({"fig07_queuing_delay", "--fast --quiet", jobs});
    }

    char scratchTemplate[] = "/tmp/memsense_perf_XXXXXX";
    const char *scratchC = mkdtemp(scratchTemplate);
    if (scratchC == nullptr)
        throw ConfigError("mkdtemp failed for the scratch directory");
    const std::string scratch = scratchC;

    std::vector<E2eResult> results;
    for (const E2eConfig &cfg : configs)
        results.push_back(runE2e(binDir, cfg, repeats, scratch));

    std::vector<std::pair<std::string, std::pair<double, double>>> micro;
    if (!skipMicro)
        micro = runMicrobench(binDir, filter, scratch);

    const ServeBatchResult serveBatch = runServeBatch(repeats);

    std::string baseline;
    if (!carryPath.empty())
        baseline = extractObject(readFile(carryPath), "baseline_pre_pr");

    std::ostringstream out;
    out << "{\n"
        << "  \"schema\": \"memsense.bench.v1\",\n"
        << "  \"suite\": \"perf_suite\",\n"
        << "  \"repeats\": " << repeats << ",\n"
        << "  \"jobs_list\": \"" << jobsList << "\",\n"
        << "  \"end_to_end\": {\n";
    for (std::size_t i = 0; i < results.size(); ++i)
        appendE2eJson(out, results[i], i + 1 == results.size());
    out << "  },\n"
        << "  \"microbench\": {";
    for (std::size_t i = 0; i < micro.size(); ++i)
        out << (i ? ",\n    " : "\n    ") << "\"" << micro[i].first
            << "\": {\"median_ns\": " << num(micro[i].second.first)
            << ", \"mad_ns\": " << num(micro[i].second.second) << "}";
    out << (micro.empty() ? "" : "\n  ") << "},\n";
    appendServeBatchJson(out, serveBatch);
    out << "  \"baseline_pre_pr\": "
        << (baseline.empty() ? "{}" : baseline) << "\n"
        << "}\n";

    bench::atomicWriteFile(outPath, out.str());
    std::fprintf(stderr, "perf_suite: wrote %s\n", outPath.c_str());
    std::system(("rm -rf " + scratch).c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string self = argv[0];
    const memsense::bench::BenchSpec spec{
        .declare = declareFlags,
        .experiment = false,
        .summary = "measure the repo: end-to-end drivers, microbench "
                   "kernels and the serve batch loop"};
    return memsense::bench::benchMain(
        argc, argv, [&self](const auto &args) { run(args.cli, self); }, spec);
}
