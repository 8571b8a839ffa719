#include "serve_mixed.hh"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "model/solver.hh"
#include "serve/evaluator.hh"
#include "serve/request.hh"
#include "serve/server.hh"
#include "serve/transport.hh"
#include "sweeps.hh"
#include "util/trace.hh"

namespace membench
{

using namespace memsense;

namespace
{

// The load comes from one process with at most four threads: a sender
// and a receiver per connection in the open loop, one thread per
// connection in the closed loop.
constexpr std::size_t kConnections = 2;
constexpr std::size_t kWindow = 32;       ///< closed-loop outstanding per connection
constexpr std::size_t kHotShapes = 256;   ///< repeated shapes, answered from cache
constexpr double kOpenRate = 10'000.0;    ///< open-loop requests per second
constexpr int kRecvTimeoutMs = 10'000;
/** Server set-ups behind the median setup_s; each takes a few
 *  milliseconds, so more are needed than for a sweep. */
constexpr int kServeSetupReps = 21;
constexpr std::size_t kNoRequest = ~std::size_t{0};

/** splitmix64: the benchmark's own seeded generator, so inputs do not
 *  change when the program's RNG does. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }

    /** Uniform in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1p-53;
    }

    /** Uniform in [0, n). */
    std::size_t below(std::size_t n) { return next() % n; }

  private:
    std::uint64_t state;
};

/** FNV-1a of @p n bytes at @p p. */
std::uint64_t
fnv1a(const char *p, std::size_t n)
{
    std::uint64_t h = 1469598103934665603ull;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= static_cast<unsigned char>(p[i]);
        h *= 1099511628211ull;
    }
    return h;
}

/** One request shape: the JSON after the id, and the length and hash
 *  of the reply after the id that a reference model::Solver gives. */
struct Shape
{
    std::string body;
    std::size_t tailBytes = 0;
    std::uint64_t tailHash = 0;
};

/** Request counts of one session. */
struct Sizes
{
    std::size_t open = 0;       ///< open-loop requests
    std::size_t closedPass = 0; ///< requests per closed-loop pass
    std::size_t passes = 0;     ///< closed-loop passes
    std::size_t timedCalls = 0; ///< calls behind each per-call time
};

/**
 * The seeded inputs of a session. Request n has shape seq[n], id
 * "q<n>", and travels on connection n % kConnections. Requests
 * [0, openBegin) warm the cache with every hot shape once; the open
 * loop follows, then the closed-loop passes.
 */
struct Inputs
{
    Sizes sizes;
    std::vector<Shape> shapes; ///< hot shapes first, then unique ones
    std::vector<std::uint32_t> seq;
    std::size_t openBegin = 0;
    std::size_t closedBegin = 0;
    std::uint64_t referenceSolves = 0;
    double referenceSolveSeconds = 0.0;
};

std::string
shapeBody(Rng &r)
{
    static const int kCores[] = {4, 8, 16};
    static const int kChannels[] = {2, 4, 6};
    const double cpi = r.uniform(0.4, 1.6);
    const double bf = r.uniform(0.05, 0.8);
    const double mpki = r.uniform(0.5, 40.0);
    const double wbr = r.uniform(0.0, 0.8);
    const int cores = kCores[r.below(3)];
    const double ghz = r.uniform(1.8, 3.6);
    const int channels = kChannels[r.below(3)];
    const double mts = r.uniform(1066.0, 2400.0);
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "\"workload\":{\"class\":\"bigdata\",\"cpi_cache\":%.17g,"
                  "\"bf\":%.17g,\"mpki\":%.17g,\"wbr\":%.17g},"
                  "\"platform\":{\"cores\":%d,\"ghz\":%.17g,"
                  "\"channels\":%d,\"speed_mts\":%.17g}}",
                  cpi, bf, mpki, wbr, cores, ghz, channels, mts);
    return buf;
}

std::string
requestLine(const Inputs &in, std::size_t n)
{
    return "{\"id\":\"q" + std::to_string(n) + "\"," +
           in.shapes[in.seq[n]].body;
}

/** Draw shapes until one solves; a shape that does not fails one
 *  operation, so a solver regression on valid input shows. */
std::uint32_t
addShape(Inputs &in, Rng &r, const model::Solver &solver, Checks &checks)
{
    static const std::string kEmptyId = "{\"id\":\"\",";
    for (;;) {
        Shape s;
        s.body = shapeBody(r);
        try {
            const serve::EvalRequest req =
                serve::parseRequestLine("{\"id\":\"\"," + s.body, 1);
            const double t0 = nowSeconds();
            const model::OperatingPoint op =
                solver.solve(req.workload, req.platform);
            in.referenceSolveSeconds += nowSeconds() - t0;
            ++in.referenceSolves;
            serve::EvalOutcome o;
            o.result.attempts = 1;
            o.result.value.emplace(op);
            const std::string line = serve::resultLine(o);
            if (line.compare(0, kEmptyId.size(), kEmptyId) != 0)
                throw std::runtime_error("unexpected reply shape " + line);
            s.tailBytes = line.size() - kEmptyId.size();
            s.tailHash = fnv1a(line.data() + kEmptyId.size(), s.tailBytes);
        } catch (const std::exception &e) {
            checks.fail(1, std::string("reference solve failed: ") +
                               e.what() + " for " + s.body);
            continue;
        }
        in.shapes.push_back(std::move(s));
        return static_cast<std::uint32_t>(in.shapes.size() - 1);
    }
}

/** Round @p n up to a whole number of connection rounds. */
std::size_t
roundUp(std::size_t n)
{
    return (n + kConnections - 1) / kConnections * kConnections;
}

Inputs
makeInputs(std::uint64_t seed, const Sizes &sizes, Checks &checks)
{
    Inputs in;
    in.sizes = sizes;
    in.sizes.open = roundUp(sizes.open);
    in.sizes.closedPass = roundUp(sizes.closedPass);
    Rng r(seed);
    const model::Solver solver;
    for (std::size_t h = 0; h < kHotShapes; ++h)
        in.seq.push_back(addShape(in, r, solver, checks));
    in.openBegin = in.seq.size();
    in.closedBegin = in.openBegin + in.sizes.open;
    const std::size_t total =
        in.closedBegin + in.sizes.closedPass * in.sizes.passes;
    while (in.seq.size() < total)
        in.seq.push_back(r.below(2) == 0
                             ? static_cast<std::uint32_t>(r.below(kHotShapes))
                             : addShape(in, r, solver, checks));
    return in;
}

serve::ServerOptions
serverOptions()
{
    serve::ServerOptions o;
    o.workers = kJobs;
    return o;
}

/** A started server with kConnections dialled in-process clients. */
class Session
{
  public:
    Session() : server(serverOptions())
    {
        auto t = std::make_unique<serve::InProcessTransport>();
        serve::InProcessTransport *raw = t.get();
        server.addTransport(std::move(t));
        server.start();
        for (std::size_t c = 0; c < kConnections; ++c)
            clients.push_back(raw->connect());
    }

    ~Session() { close(); }

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /** Hang up, drain and join; the final counters. */
    serve::ServerStats
    close()
    {
        if (!closed) {
            for (serve::InProcessClient &c : clients)
                c.closeSend();
            server.stop();
            closed = true;
        }
        return server.stats();
    }

    serve::Server server;
    std::vector<serve::InProcessClient> clients;

  private:
    bool closed = false;
};

/** Client-side record of one connection in one phase. */
struct ConnRecord
{
    std::uint64_t ok = 0;
    std::uint64_t failed = 0;
    std::vector<double> latencies; ///< seconds from due time
    double lateMax = 0.0;          ///< seconds the sender ran late
};

/** Requests of connection @p c among @p count starting at a multiple
 *  of kConnections. */
std::size_t
shareOf(std::size_t count, std::size_t c)
{
    return (count + kConnections - 1 - c) / kConnections;
}

/**
 * Receive one reply on connection @p c and check it against the
 * reference: a benchmark id of this connection, not answered before,
 * and byte-equal to the reference reply. Returns the request number,
 * or kNoRequest for a wrong reply; false from @p got on a timeout.
 */
std::size_t
receiveOne(serve::InProcessClient &cli, const Inputs &in, std::size_t c,
           std::vector<bool> &answered, ConnRecord &rec, bool &got)
{
    static const std::string kPrefix = "{\"id\":\"q";
    std::string line;
    got = cli.recv(line, kRecvTimeoutMs) == serve::LineStream::Read::Line;
    if (!got)
        return kNoRequest;
    std::size_t n = 0, i = kPrefix.size();
    bool ok = line.compare(0, i, kPrefix) == 0 && i < line.size() &&
              line[i] >= '0' && line[i] <= '9';
    for (; ok && i < line.size() && line[i] >= '0' && line[i] <= '9'; ++i)
        n = n * 10 + static_cast<std::size_t>(line[i] - '0');
    ok = ok && line.compare(i, 2, "\",") == 0 && n < in.seq.size() &&
         n % kConnections == c && !answered[n / kConnections];
    if (ok) {
        const Shape &want = in.shapes[in.seq[n]];
        ok = line.size() - (i + 2) == want.tailBytes &&
             fnv1a(line.data() + i + 2, want.tailBytes) == want.tailHash;
    }
    if (!ok) {
        ++rec.failed;
        return kNoRequest;
    }
    answered[n / kConnections] = true;
    ++rec.ok;
    return n;
}

/** Closed loop on connection @p c over requests [begin, begin+count):
 *  keep kWindow outstanding, send the next when a reply arrives. */
void
closedLoop(serve::InProcessClient &cli, const Inputs &in, std::size_t begin,
           std::size_t count, std::size_t c, ConnRecord &rec)
{
    const std::size_t mine = shareOf(count, c);
    std::vector<bool> answered(in.seq.size() / kConnections + 1);
    std::size_t sent = 0;
    for (; sent < std::min(kWindow, mine); ++sent)
        cli.send(requestLine(in, begin + c + sent * kConnections));
    for (std::size_t done = 0; done < mine; ++done) {
        bool got = false;
        receiveOne(cli, in, c, answered, rec, got);
        if (!got) {
            rec.failed += mine - done;
            return;
        }
        if (sent < mine)
            cli.send(requestLine(in, begin + c + sent++ * kConnections));
    }
}

/** Run @p body(c) on one thread per connection and join them. */
template <typename Fn>
void
perConnection(Fn body)
{
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kConnections; ++c)
        threads.emplace_back(body, c);
    for (std::thread &t : threads)
        t.join();
}

/** Fold per-connection records into the checks. */
void
account(const std::vector<ConnRecord> &recs, const char *phase,
        Checks &checks)
{
    for (const ConnRecord &r : recs) {
        checks.pass(r.ok);
        if (r.failed)
            checks.fail(r.failed, std::string(phase) +
                                      ": missing, shed or wrong replies");
    }
}

/** One closed-loop pass over [begin, begin+count); its wall time. */
double
closedPhase(Session &s, const Inputs &in, std::size_t begin,
            std::size_t count, const char *phase, Checks &checks,
            std::uint64_t *ok = nullptr)
{
    std::vector<ConnRecord> recs(kConnections);
    const double t0 = nowSeconds();
    perConnection([&](std::size_t c) {
        closedLoop(s.clients[c], in, begin, count, c, recs[c]);
    });
    const double seconds = nowSeconds() - t0;
    account(recs, phase, checks);
    if (ok)
        for (const ConnRecord &r : recs)
            *ok += r.ok;
    return seconds;
}

/** What one session measured. */
struct SessionOut
{
    std::vector<double> latencies; ///< open loop, seconds from due
    double lateMax = 0.0;          ///< open-loop sender lateness, s
    std::vector<double> passSeconds;
    std::uint64_t closedOk = 0;
    serve::ServerStats before;     ///< after warm-up
    serve::ServerStats after;      ///< after the last phase
    bool ledgerOk = false;
};

SessionOut
runSession(const Inputs &in, Checks &checks)
{
    SessionOut out;
    Session s;
    closedPhase(s, in, 0, in.openBegin, "warm-up", checks);
    out.before = s.server.stats();

    {
        trace::Span span("bench.serve.open_loop");
        std::vector<ConnRecord> recs(kConnections);
        const OpenLoopSchedule sched(nowSeconds() + 0.01, kOpenRate);
        const std::size_t begin = in.openBegin;
        std::vector<std::thread> threads;
        for (std::size_t c = 0; c < kConnections; ++c) {
            threads.emplace_back([&, c] {
                recs[c].lateMax = paceOpenLoop(
                    sched, c, kConnections, shareOf(in.sizes.open, c),
                    realPacingClock(), [&](std::uint64_t k) {
                        s.clients[c].send(requestLine(in, begin + k));
                    });
            });
            threads.emplace_back([&, c] {
                std::vector<bool> answered(in.seq.size() / kConnections + 1);
                const std::size_t mine = shareOf(in.sizes.open, c);
                for (std::size_t k = 0; k < mine; ++k) {
                    bool got = false;
                    const std::size_t n = receiveOne(
                        s.clients[c], in, c, answered, recs[c], got);
                    if (!got) {
                        recs[c].failed += mine - k;
                        return;
                    }
                    if (n != kNoRequest)
                        recs[c].latencies.push_back(
                            sched.latencyFromDue(n - begin, nowSeconds()));
                }
            });
        }
        for (std::thread &t : threads)
            t.join();
        account(recs, "open loop", checks);
        for (const ConnRecord &r : recs) {
            out.latencies.insert(out.latencies.end(), r.latencies.begin(),
                                 r.latencies.end());
            out.lateMax = std::max(out.lateMax, r.lateMax);
        }
    }

    for (std::size_t p = 0; p < in.sizes.passes; ++p) {
        trace::Span span("bench.serve.closed_pass");
        out.passSeconds.push_back(
            closedPhase(s, in, in.closedBegin + p * in.sizes.closedPass,
                        in.sizes.closedPass, "closed loop", checks,
                        &out.closedOk));
    }
    out.after = s.server.stats();
    const serve::ServerStats final_stats = s.close();
    out.ledgerOk = final_stats.consistent() &&
                   final_stats.accepted == in.seq.size();
    checks.expect(out.ledgerOk, 1,
                  "server ledger: " + final_stats.describe());
    return out;
}

/**
 * Seconds from constructing a Server to a warm cache: start(), dial
 * every connection and answer each hot shape once, which is all the
 * serving set-up before the first timed request.
 */
double
setupOnce(const Inputs &in, Checks &checks)
{
    const double t0 = nowSeconds();
    Session s;
    closedPhase(s, in, 0, in.openBegin, "set-up", checks);
    const double seconds = nowSeconds() - t0;
    checks.expect(s.close().consistent(), 1, "set-up server ledger");
    return seconds;
}

/** The fastest closed-loop pass, per request: the tracing-overhead
 *  base, least disturbed by host noise. */
double
minPassSecondsPerRequest(const SessionOut &o, std::size_t per_pass)
{
    return *std::min_element(o.passSeconds.begin(), o.passSeconds.end()) /
           static_cast<double>(per_pass);
}

/** Inputs of a traced serve pass plus its untraced per-call times. */
struct ServePlan
{
    Inputs in;
    double parseUs = 0.0;
    double encodeUs = 0.0;
    double probeUs = 0.0;

    ServePlan(std::uint64_t seed, const Sizes &sizes, Checks &checks)
        : in(makeInputs(seed, sizes, checks))
    {
        timeCalls();
    }

    /** Per-call host cost of parseRequestLine, resultLine and
     *  Evaluator::probe over the session's first requests. */
    void
    timeCalls()
    {
        const std::size_t n = std::min(in.sizes.timedCalls, in.seq.size());
        std::vector<std::string> lines;
        for (std::size_t i = 0; i < n; ++i)
            lines.push_back(requestLine(in, i));

        std::vector<serve::EvalRequest> reqs;
        reqs.reserve(n);
        double t0 = nowSeconds();
        for (std::size_t i = 0; i < n; ++i)
            reqs.push_back(serve::parseRequestLine(lines[i], i + 1));
        parseUs = (nowSeconds() - t0) * 1e6 / static_cast<double>(n);

        const model::Solver solver;
        std::vector<serve::EvalOutcome> outs(n);
        for (std::size_t i = 0; i < n; ++i) {
            outs[i].id = reqs[i].id;
            outs[i].result.attempts = 1;
            outs[i].result.value.emplace(
                solver.solve(reqs[i].workload, reqs[i].platform));
        }
        std::size_t bytes = 0;
        t0 = nowSeconds();
        for (const serve::EvalOutcome &o : outs)
            bytes += serve::resultLine(o).size();
        encodeUs = (nowSeconds() - t0) * 1e6 / static_cast<double>(n);

        // An evaluator holding the hot shapes, probed with the mix.
        serve::Evaluator ev;
        for (std::size_t h = 0; h < kHotShapes && h < n; ++h)
            ev.solve(reqs[h].workload, reqs[h].platform);
        std::size_t hits = 0;
        t0 = nowSeconds();
        for (const serve::EvalRequest &r : reqs)
            hits += ev.probe(r.workload, r.platform).has_value();
        probeUs = (nowSeconds() - t0) * 1e6 / static_cast<double>(n);
        if (bytes == 0 || hits == 0)
            throw std::logic_error("per-call timing did no work");
    }

    /**
     * The traced session (tracing must be on): adds the serve,
     * model.solver and loadgen metrics and exact counts. Returns the
     * closed-loop seconds per request.
     */
    double
    run(RunResult &res)
    {
        const CounterDelta counters;
        const SessionOut o = runSession(in, res.checks);
        const serve::ServerStats &a = o.after, &b = o.before;
        const double accepted = static_cast<double>(a.accepted - b.accepted);
        const std::uint64_t batches = a.batches - b.batches;
        const auto values = trace::valueStats();
        const auto depth = values.find("serve.server.queue_depth");
        const bool has_depth =
            depth != values.end() && depth->second.finite > 0;
        const std::uint64_t solves = counters.get("solver.solves");
        const std::uint64_t iterations = counters.get("solver.iterations");

        Metrics &m = res.metrics;
        m.add("model.solver.solves", static_cast<double>(solves), "count");
        m.add("model.solver.iterations", static_cast<double>(iterations),
              "count");
        m.add("model.solver.us_per_solve",
              in.referenceSolveSeconds * 1e6 /
                  static_cast<double>(in.referenceSolves),
              "us");
        m.add("serve.request.parse_us", parseUs, "us");
        m.add("serve.request.encode_us", encodeUs, "us");
        m.add("serve.cache.hit_ratio",
              static_cast<double>(a.cacheHits - b.cacheHits) / accepted,
              "fraction");
        m.add("serve.cache.probe_us", probeUs, "us");
        m.add("serve.server.batch_mean",
              batches == 0 ? 1.0
                           : static_cast<double>(a.batchedRequests -
                                                 b.batchedRequests) /
                                 static_cast<double>(batches),
              "requests");
        m.add("serve.server.deduped",
              static_cast<double>(a.batchDeduped - b.batchDeduped), "count");
        m.add("serve.server.shed",
              static_cast<double>(a.shed - b.shed + a.quotaShed - b.quotaShed),
              "count");
        m.add("serve.server.ledger_ok", o.ledgerOk ? 1.0 : 0.0, "bool");
        m.add("serve.server.queue_depth_mean",
              has_depth ? depth->second.sum /
                              static_cast<double>(depth->second.finite)
                        : 0.0,
              "requests");
        m.add("serve.server.queue_depth_max",
              has_depth ? depth->second.max : 0.0, "requests");
        m.add("loadgen.sent", static_cast<double>(in.seq.size()), "count");
        m.add("loadgen.late_max_ms", o.lateMax * 1e3, "ms");
        m.add("loadgen.p99_ms",
              quantileNearestRank(o.latencies, 0.99).value_or(0.0) * 1e3,
              "ms");
        m.add("loadgen.p99_samples", static_cast<double>(o.latencies.size()),
              "count");

        res.exactCounts["model.solver.solves"] = solves;
        res.exactCounts["model.solver.iterations"] = iterations;
        res.exactCounts["loadgen.sent"] = in.seq.size();
        return minPassSecondsPerRequest(o, in.sizes.closedPass);
    }
};

} // anonymous namespace

std::function<void(RunResult &)>
prepareServeProbe(std::uint64_t seed, Checks &checks)
{
    Sizes sizes;
    sizes.open = 2'000;
    sizes.closedPass = 8'000;
    sizes.passes = 1;
    sizes.timedCalls = 5'000;
    auto plan = std::make_shared<ServePlan>(seed, sizes, checks);
    return [plan](RunResult &result) { plan->run(result); };
}

RunResult
runServeMixed(const RunArgs &args)
{
    RunResult res;
    if (args.trace) {
        Sizes sizes;
        sizes.open = 10'000;
        sizes.closedPass = 25'000;
        sizes.passes = 3;
        sizes.timedCalls = 20'000;
        ServePlan plan(args.seed, sizes, res.checks);
        const SessionOut untraced = runSession(plan.in, res.checks);
        const double untraced_per_req =
            minPassSecondsPerRequest(untraced, plan.in.sizes.closedPass);
        TraceSession session(args.traceOut);
        const double traced_per_req = plan.run(res);
        simLayerProbe(args.seed, res);
        res.metrics.add("trace.overhead_frac",
                        traced_per_req / untraced_per_req - 1.0, "fraction");
        return res;
    }

    // Sized by --seconds: the open loop takes 30% of it; six closed-loop
    // passes take about 20% more at the ~100k replies/s of a 4-core host.
    Sizes sizes;
    sizes.open = static_cast<std::size_t>(0.3 * kOpenRate * args.seconds);
    sizes.closedPass = 3'500 * static_cast<std::size_t>(args.seconds);
    sizes.passes = 6;
    const Inputs in = makeInputs(args.seed, sizes, res.checks);

    std::vector<double> setups;
    for (int i = 0; i < kServeSetupReps; ++i)
        setups.push_back(setupOnce(in, res.checks));
    const SessionOut o = runSession(in, res.checks);

    Metrics &m = res.metrics;
    m.add("sweep_s", medianOf(o.passSeconds), "s");
    m.add("capacity_rps",
          static_cast<double>(o.closedOk) /
              std::accumulate(o.passSeconds.begin(), o.passSeconds.end(), 0.0),
          "1/s");
    m.add("p50_ms", medianOf(o.latencies) * 1e3, "ms");
    m.add("setup_s", medianOf(setups), "s");
    m.add("peak_rss_mb", peakRssMb(), "MB");
    std::printf("open loop: %zu samples, p99 %.4f ms, generator late by "
                "at most %.3f ms\n",
                o.latencies.size(),
                quantileNearestRank(o.latencies, 0.99).value_or(0.0) * 1e3,
                o.lateMax * 1e3);
    std::printf("closed-loop passes: %zu of %zu requests, min %.4f s, "
                "max %.4f s\n",
                o.passSeconds.size(), in.sizes.closedPass,
                *std::min_element(o.passSeconds.begin(), o.passSeconds.end()),
                *std::max_element(o.passSeconds.begin(), o.passSeconds.end()));
    return res;
}

} // namespace membench
