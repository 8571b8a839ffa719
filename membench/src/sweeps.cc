#include "sweeps.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "measure/freq_scaling.hh"
#include "measure/loaded_latency.hh"
#include "measure/runner.hh"
#include "model/fitter.hh"
#include "model/queuing.hh"
#include "serve_mixed.hh"
#include "sim/machine.hh"
#include "stats/curve.hh"
#include "util/trace.hh"
#include "workloads/factory.hh"
#include "workloads/latency_checker.hh"

namespace membench
{

using namespace memsense;

namespace
{

using Table = std::vector<std::vector<double>>;

/** Repetitions behind the median setup_s of a sweep. */
constexpr int kSetupReps = 9;

/** One sweep's output as the rows of its golden CSVs, plus a hook
 *  that redoes the sweep's model fit on that output. */
struct GridRun
{
    std::vector<Table> tables;
    std::function<void()> refit;
};

/**
 * One grid point rebuilt from public API (machine + generators), so
 * the traced run can read the per-level counters the sweep discards.
 */
class Rig
{
  public:
    virtual ~Rig() = default;
    virtual sim::Machine &machine() = 0;
    /** Warm up and measure; the sweep's values for this point, in
     *  SweepSpec::replicaColumns order. */
    virtual std::vector<double> run() = 0;
};

/** Everything the runners need to know about one sweep. */
struct SweepSpec
{
    std::vector<std::string> goldenFiles; ///< one table each, in order
    std::vector<std::string> columns;     ///< CSV header of each table
    std::size_t exactColumns = 0; ///< leading grid-coordinate columns
    double rel = 0.0;             ///< golden tolerance of the others
    double abs = 0.0;
    std::vector<std::size_t> replicaColumns; ///< a Rig reproduces these
    std::size_t points = 0;                  ///< rows over all tables
    std::function<GridRun()> grid;           ///< the public sweep call
    std::function<std::unique_ptr<Rig>(std::size_t)> rig;
    /** A fresh generator of @p core at @p point (op-stream replay). */
    std::function<std::unique_ptr<workloads::Workload>(std::size_t, int)>
        stream;
    std::function<sim::MachineConfig(std::size_t)> machineConfig;
};

// ---------------------------------------------------------------------
// sweep_fig03

const std::vector<std::string> kFig03Ids = {"column_store", "nits",
                                            "proximity", "spark"};

/** fig03's --fast grid (bench/characterize_common.hh) at @p seed. */
measure::FreqScalingConfig
fig03Config(std::uint64_t seed)
{
    measure::FreqScalingConfig cfg;
    cfg.coreGhz = {2.1, 2.7, 3.1};
    cfg.measure = nsToPicos(600'000.0);
    cfg.warmup = nsToPicos(4'000'000.0);
    cfg.adaptiveWarmup = false;
    cfg.seed = seed;
    cfg.jobs = kJobs;
    return cfg;
}

class Fig03Rig : public Rig
{
  public:
    explicit Fig03Rig(const measure::RunConfig &rc) : wr(rc), ghz(rc.ghz) {}

    sim::Machine &machine() override { return wr.machine(); }

    std::vector<double>
    run() override
    {
        wr.warmup();
        const sim::MachineSnapshot d = wr.measure();
        // The same arithmetic as measure::runObservation.
        const double mpi = d.mpki() / 1000.0;
        return {mpi * d.avgMissPenaltyCycles(ghz), d.cpi(ghz)};
    }

  private:
    measure::WorkloadRun wr;
    double ghz;
};

SweepSpec
fig03Spec(const std::vector<std::string> &ids, std::uint64_t seed)
{
    const measure::FreqScalingConfig cfg = fig03Config(seed);
    auto grid = std::make_shared<std::vector<measure::RunConfig>>();
    SweepSpec s;
    for (const std::string &id : ids) {
        for (const measure::RunConfig &rc :
             measure::characterizationGrid(id, cfg))
            grid->push_back(rc);
        s.goldenFiles.push_back("fig03_" + id + ".csv");
    }
    s.columns = {"ghz", "mt", "mpi_mp", "cpi_measured", "cpi_fitted"};
    s.exactColumns = 2;
    s.rel = 1e-4; // tests/golden_regression_test.cc
    s.abs = 1e-6;
    s.replicaColumns = {2, 3};
    s.points = grid->size();
    s.grid = [ids, cfg]() {
        auto chars = std::make_shared<std::vector<measure::Characterization>>(
            measure::characterizeMany(ids, cfg));
        GridRun g;
        for (const measure::Characterization &c : *chars) {
            Table t;
            for (const model::FitObservation &o : c.observations) {
                const double lpi = o.latencyPerInstruction();
                t.push_back({o.coreGhz, o.memMtPerSec, lpi, o.cpiEff,
                             c.model.predictCpi(lpi)});
            }
            g.tables.push_back(std::move(t));
        }
        g.refit = [chars]() {
            for (const measure::Characterization &c : *chars) {
                const workloads::WorkloadInfo &info =
                    workloads::workloadInfo(c.workloadId);
                model::fitModel(info.display, info.cls, c.observations);
            }
        };
        return g;
    };
    s.rig = [grid](std::size_t p) -> std::unique_ptr<Rig> {
        return std::make_unique<Fig03Rig>(grid->at(p));
    };
    s.stream = [grid](std::size_t p, int core) {
        const measure::RunConfig &rc = grid->at(p);
        return workloads::makeWorkload(rc.workloadId, core, rc.seed);
    };
    s.machineConfig = [grid](std::size_t p) {
        return grid->at(p).machineConfig();
    };
    return s;
}

// ---------------------------------------------------------------------
// mlc_fig07

/** fig07's --fast setups (bench/fig07_queuing_delay.cc) at @p seed. */
std::vector<measure::LoadedLatencySetup>
fig07Setups(std::uint64_t seed)
{
    std::vector<measure::LoadedLatencySetup> setups =
        measure::paperFig7Setups();
    for (measure::LoadedLatencySetup &s : setups) {
        s.jobs = kJobs;
        s.delayCycles = {0, 8, 24, 48, 96, 256, 1024, 2048};
        s.measure = nsToPicos(200'000.0);
        s.seed = seed;
    }
    return setups;
}

/** The machine of one loaded-latency point, as measure builds it. */
sim::MachineConfig
fig07MachineConfig(const measure::LoadedLatencySetup &s)
{
    sim::MachineConfig mc;
    mc.cores = s.cores;
    mc.core.ghz = s.ghz;
    mc.core.mshrs = 28;
    mc.dram.channels = s.channels;
    mc.dram.megaTransfers = s.memMtPerSec;
    mc.seed = s.seed;
    return mc;
}

std::unique_ptr<workloads::Workload>
fig07Stream(const measure::LoadedLatencySetup &s, std::uint32_t delay,
            int core)
{
    workloads::LatencyCheckerConfig lc;
    lc.role = core == 0 ? workloads::MlcRole::LatencyProbe
                        : workloads::MlcRole::BandwidthGen;
    lc.seed = s.seed * 131 + static_cast<std::uint64_t>(core);
    lc.readFraction = s.readFraction;
    lc.delayCycles = delay;
    lc.arenaBase = (sim::Addr{1} << 44) +
                   static_cast<sim::Addr>(core) * (sim::Addr{1} << 42);
    return std::make_unique<workloads::LatencyCheckerWorkload>(lc);
}

class Fig07Rig : public Rig
{
  public:
    Fig07Rig(const measure::LoadedLatencySetup &s, std::uint32_t delay)
        : setup(s), mach(std::make_unique<sim::Machine>(fig07MachineConfig(s)))
    {
        for (int c = 0; c < s.cores; ++c) {
            streams.push_back(fig07Stream(s, delay, c));
            mach->bind(c, *streams.back());
        }
    }

    sim::Machine &machine() override { return *mach; }

    std::vector<double>
    run() override
    {
        mach->runFor(setup.warmup);
        const sim::CoreCounters p0 = mach->core(0).counters();
        const sim::MachineSnapshot s0 = mach->snapshot();
        mach->runFor(setup.measure);
        const sim::CoreCounters p1 = mach->core(0).counters();
        const sim::MachineSnapshot d = mach->snapshot() - s0;
        const std::uint64_t fetches =
            p1.memoryFetches() - p0.memoryFetches();
        const double lat_ns =
            fetches == 0 ? 0.0
                         : picosToNs(p1.dramLatencyTotal - p0.dramLatencyTotal) /
                               static_cast<double>(fetches);
        return {d.dramBandwidth() / 1e9, lat_ns};
    }

  private:
    measure::LoadedLatencySetup setup;
    // Generators outlive the machine's runs, so they are declared
    // first and destroyed last.
    std::vector<std::unique_ptr<workloads::Workload>> streams;
    std::unique_ptr<sim::Machine> mach;
};

SweepSpec
fig07Spec(std::uint64_t seed)
{
    auto setups = std::make_shared<std::vector<measure::LoadedLatencySetup>>(
        fig07Setups(seed));
    // Point p is delay p % n of setup p / n.
    const std::size_t per = setups->front().delayCycles.size();
    SweepSpec s;
    for (const measure::LoadedLatencySetup &su : *setups) {
        char name[64];
        std::snprintf(name, sizeof name, "fig07_ddr%.0f_r%.0f.csv",
                      su.memMtPerSec, su.readFraction * 100.0);
        s.goldenFiles.push_back(name);
    }
    s.columns = {"delay_cyc", "bw_gbps", "util", "latency_ns", "queuing_ns"};
    s.exactColumns = 1;
    s.rel = 1e-4; // tests/golden_regression_test.cc
    s.abs = 1e-3;
    s.replicaColumns = {1, 3};
    s.points = setups->size() * per;
    s.grid = [setups]() {
        auto curves =
            std::make_shared<std::vector<measure::LoadedLatencyCurve>>();
        for (const measure::LoadedLatencySetup &su : *setups)
            curves->push_back(measure::sweepLoadedLatency(su));
        GridRun g;
        for (const measure::LoadedLatencyCurve &c : *curves) {
            Table t;
            for (const measure::LoadedLatencyPoint &p : c.points)
                t.push_back({static_cast<double>(p.delayCycles),
                             p.bandwidthGBps,
                             p.bandwidthGBps / c.maxBandwidthGBps,
                             p.latencyNs, p.latencyNs - c.unloadedNs});
            g.tables.push_back(std::move(t));
        }
        // The model fit of this sweep: the composite queuing curve,
        // built as measure::measureQueuingModel builds it.
        g.refit = [curves]() {
            std::vector<stats::PiecewiseCurve> fitted;
            for (const measure::LoadedLatencyCurve &c : *curves)
                fitted.push_back(stats::PiecewiseCurve::fromSamples(
                                     c.toQueuingSamples(), 24)
                                     .monotoneEnvelope());
            model::QueuingModel::fromCurve(
                stats::PiecewiseCurve::composite(fitted, 24)
                    .monotoneEnvelope());
        };
        return g;
    };
    s.rig = [setups, per](std::size_t p) -> std::unique_ptr<Rig> {
        const measure::LoadedLatencySetup &su = setups->at(p / per);
        return std::make_unique<Fig07Rig>(su, su.delayCycles[p % per]);
    };
    s.stream = [setups, per](std::size_t p, int core) {
        const measure::LoadedLatencySetup &su = setups->at(p / per);
        return fig07Stream(su, su.delayCycles[p % per], core);
    };
    s.machineConfig = [setups, per](std::size_t p) {
        return fig07MachineConfig(setups->at(p / per));
    };
    return s;
}

// ---------------------------------------------------------------------
// Output checks

/** Rows of a golden CSV whose header must equal @p columns. */
Table
readGolden(const std::string &file, const std::vector<std::string> &columns)
{
    const std::string path = std::string(MEMBENCH_GOLDEN_DIR) + "/" + file;
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read golden " + path);
    std::string line;
    std::getline(in, line);
    std::string want;
    for (std::size_t i = 0; i < columns.size(); ++i)
        want += (i ? "," : "") + columns[i];
    if (line != want)
        throw std::runtime_error(path + ": header is not " + want);
    Table rows;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        std::vector<double> row;
        std::stringstream ss(line);
        std::string cell;
        while (std::getline(ss, cell, ','))
            row.push_back(std::stod(cell));
        rows.push_back(std::move(row));
    }
    return rows;
}

/** |a - g| <= abs + rel * max(|a|, |g|) on measured columns, exact on
 *  the grid coordinates (the golden-regression rule). */
bool
rowMatchesGolden(const SweepSpec &s, const std::vector<double> &row,
                 const std::vector<double> &golden)
{
    if (row.size() != golden.size())
        return false;
    for (std::size_t c = 0; c < row.size(); ++c) {
        const double tol =
            c < s.exactColumns
                ? 0.0
                : s.abs + s.rel * std::max(std::fabs(row[c]),
                                           std::fabs(golden[c]));
        if (!(std::fabs(row[c] - golden[c]) <= tol))
            return false;
    }
    return true;
}

/**
 * Check every point of @p g: finite values, then either bit-identical
 * to @p first (a repeated grid) or, for the first grid at the golden
 * seed, within tolerance of @p golden. A missing point fails too.
 */
void
checkGrid(const SweepSpec &s, const GridRun &g, const GridRun *first,
          const std::vector<Table> &golden, Checks &checks)
{
    std::size_t seen = 0;
    for (std::size_t t = 0; t < g.tables.size(); ++t) {
        for (std::size_t r = 0; r < g.tables[t].size(); ++r) {
            const std::vector<double> &row = g.tables[t][r];
            bool ok = row.size() == s.columns.size() &&
                      std::all_of(row.begin(), row.end(),
                                  [](double v) { return std::isfinite(v); });
            std::string why = "non-finite or short row";
            if (ok && first) {
                ok = t < first->tables.size() &&
                     r < first->tables[t].size() && first->tables[t][r] == row;
                why = "differs from the first grid of this run";
            } else if (ok && !golden.empty()) {
                ok = t < golden.size() && r < golden[t].size() &&
                     rowMatchesGolden(s, row, golden[t][r]);
                why = "differs from tests/golden/" + s.goldenFiles[t];
            }
            checks.expect(ok, 1,
                          why + " (table " + std::to_string(t) + ", row " +
                              std::to_string(r) + ")");
            ++seen;
        }
    }
    if (seen < s.points)
        checks.fail(s.points - seen, "sweep returned too few points");
}

std::vector<Table>
goldenFor(const SweepSpec &s, std::uint64_t seed)
{
    std::vector<Table> golden;
    if (seed == kGoldenSeed)
        for (const std::string &f : s.goldenFiles)
            golden.push_back(readGolden(f, s.columns));
    return golden;
}

/** The row of point @p p in @p g (tables in order, rows in order). */
const std::vector<double> *
rowOf(const GridRun &g, std::size_t p)
{
    for (const Table &t : g.tables) {
        if (p < t.size())
            return &t[p];
        p -= t.size();
    }
    return nullptr;
}

/** Seconds to build every point's machine and generators. */
double
setupOnce(const SweepSpec &s)
{
    double total = 0.0;
    for (std::size_t p = 0; p < s.points; ++p) {
        const double t0 = nowSeconds();
        std::unique_ptr<Rig> rig = s.rig(p);
        total += nowSeconds() - t0;
    }
    return total;
}

// ---------------------------------------------------------------------
// Untraced run: the end-to-end metrics

RunResult
runSweep(const SweepSpec &s, const RunArgs &args)
{
    RunResult res;
    const std::vector<Table> golden = goldenFor(s, args.seed);

    std::vector<double> setups;
    for (int i = 0; i < kSetupReps; ++i)
        setups.push_back(setupOnce(s));

    // Whole grids until the time is up; at least three, for a median.
    std::vector<double> times;
    GridRun first;
    const double start = nowSeconds();
    while (times.size() < 3 || nowSeconds() - start < args.seconds) {
        const double t0 = nowSeconds();
        GridRun g = s.grid();
        times.push_back(nowSeconds() - t0);
        checkGrid(s, g, times.size() == 1 ? nullptr : &first, golden,
                  res.checks);
        if (times.size() == 1)
            first = std::move(g);
    }
    const double total = std::accumulate(times.begin(), times.end(), 0.0);
    const double sweep_s = medianOf(times);
    std::printf("grids: %zu, min %.4f s, median %.4f s, max %.4f s\n",
                times.size(), *std::min_element(times.begin(), times.end()),
                sweep_s, *std::max_element(times.begin(), times.end()));

    Metrics &m = res.metrics;
    m.add("sweep_s", sweep_s, "s");
    m.add("capacity_rps",
          static_cast<double>(s.points * times.size()) / total, "1/s");
    m.add("p50_ms", sweep_s * 1e3, "ms");
    m.add("setup_s", medianOf(setups), "s");
    m.add("peak_rss_mb", peakRssMb(), "MB");
    return res;
}

// ---------------------------------------------------------------------
// Traced run: the simulator-layer metrics

/** Per-level cache, core and DRAM counters summed over points. */
struct SimTotals
{
    sim::CacheStats l1, l2, llc;
    std::uint64_t instructions = 0;
    double busyPs = 0, mshrStallPs = 0, depStallPs = 0;
    std::uint64_t dramReads = 0, dramWrites = 0, rowHits = 0, rowMisses = 0;
    double busBusyPs = 0, channelPs = 0, queueDelayPs = 0;

    void
    add(const sim::Machine &m)
    {
        auto fold = [](sim::CacheStats &into, const sim::CacheStats &s) {
            into.hits += s.hits;
            into.misses += s.misses;
            into.dirtyEvictions += s.dirtyEvictions;
        };
        for (int c = 0; c < m.coreCount(); ++c) {
            const sim::SimCore &core = m.core(c);
            fold(l1, core.l1().stats());
            fold(l2, core.l2().stats());
            const sim::CoreCounters &k = core.counters();
            instructions += k.instructions;
            busyPs += static_cast<double>(k.busyTime);
            mshrStallPs += static_cast<double>(k.mshrStall);
            depStallPs += static_cast<double>(k.depStall);
        }
        fold(llc, m.llc().stats());
        const sim::MemoryController &mc = m.memctrl();
        dramReads += mc.stats().reads;
        dramWrites += mc.stats().writes;
        for (std::uint32_t ch = 0; ch < mc.channels(); ++ch) {
            const sim::ChannelStats &cs = mc.channelStats(ch);
            rowHits += cs.rowHits;
            rowMisses += cs.rowMisses;
            busBusyPs += static_cast<double>(cs.busBusy);
            queueDelayPs += static_cast<double>(cs.queueDelay);
        }
        channelPs += static_cast<double>(m.now()) * mc.channels();
    }
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** One memory access of a replayed op stream. */
struct Access
{
    sim::Addr line;
    bool write;
};

/** Most accesses captured for the cache and DRAM replays. */
constexpr std::size_t kReplayAccesses = 1u << 20;

/**
 * Host ns per lookup of the L1 -> L2 -> LLC hierarchy of @p mc driven
 * standalone by @p trace (fills on miss, dirty L1 victims written back
 * into L2): the cache layer's cost without the core around it.
 */
double
cacheNsPerAccess(const sim::MachineConfig &mc,
                 const std::vector<Access> &trace)
{
    sim::CacheConfig llc_cfg = mc.llcPerCore;
    llc_cfg.sizeBytes = mc.llcTotalBytes();
    sim::SetAssocCache l1("l1", mc.l1d, mc.seed);
    sim::SetAssocCache l2("l2", mc.l2, mc.seed);
    sim::SetAssocCache llc("llc", llc_cfg, mc.seed);
    std::uint64_t lookups = 0;
    Picos now = 0;
    const double t0 = nowSeconds();
    for (const Access &a : trace) {
        now += 1000;
        ++lookups;
        if (l1.lookup(a.line, a.write, now).hit)
            continue;
        ++lookups;
        if (!l2.lookup(a.line, false, now).hit) {
            ++lookups;
            if (!llc.lookup(a.line, false, now).hit)
                llc.fillAfterMiss(a.line, false, now);
            l2.fillAfterMiss(a.line, false, now);
        }
        const sim::Victim v = l1.fillAfterMiss(a.line, a.write, now);
        if (v.valid && v.dirty)
            l2.writebackInsert(v.lineAddr, now);
    }
    return ratio((nowSeconds() - t0) * 1e9, static_cast<double>(lookups));
}

/** Host ns per MemoryController read/write driven standalone. */
double
dramNsPerAccess(const sim::MachineConfig &mc,
                const std::vector<Access> &trace)
{
    sim::MemoryController mem(mc.dram);
    Picos now = 0;
    const double t0 = nowSeconds();
    for (const Access &a : trace) {
        now += 2000;
        if (a.write)
            mem.write(a.line, now);
        else
            mem.read(a.line, now);
    }
    mem.drainWrites(now);
    return ratio((nowSeconds() - t0) * 1e9,
                 static_cast<double>(trace.size()));
}

/**
 * Regenerate every point's op streams standalone through
 * Workload::acquireRun, each core up to the instructions it retired in
 * the replica; capture point 0's memory accesses for the replays.
 */
double
regenerateStreams(const SweepSpec &s,
                  const std::vector<std::vector<std::uint64_t>> &retired,
                  std::vector<Access> &capture)
{
    const double t0 = nowSeconds();
    for (std::size_t p = 0; p < s.points; ++p) {
        for (std::size_t c = 0; c < retired[p].size(); ++c) {
            std::unique_ptr<workloads::Workload> w =
                s.stream(p, static_cast<int>(c));
            std::uint64_t instr = 0;
            while (instr < retired[p][c]) {
                const sim::MicroOp *run = nullptr;
                const std::size_t n = w->acquireRun(&run);
                if (n == 0)
                    break;
                for (std::size_t i = 0; i < n; ++i) {
                    const sim::MicroOp &op = run[i];
                    if (op.kind == sim::OpKind::Compute) {
                        instr += op.count;
                        continue;
                    }
                    if (op.kind == sim::OpKind::Bubble ||
                        op.kind == sim::OpKind::Idle)
                        continue;
                    ++instr;
                    if (p == 0 && capture.size() < kReplayAccesses)
                        capture.push_back({op.addr >> sim::kLineShift,
                                           op.kind != sim::OpKind::Load});
                }
            }
        }
    }
    return nowSeconds() - t0;
}

/**
 * The traced pass over @p s: one traced grid through the public sweep
 * call (checked against @p reference when given), a replica of every
 * point for the per-level counters, the op-stream regeneration, the
 * standalone cache and DRAM replays and the model fit. Returns the
 * traced grid's wall time.
 */
double
simLayerPass(const SweepSpec &s, const GridRun *reference,
             std::uint64_t seed, RunResult &res)
{
    Metrics &m = res.metrics;
    Checks &checks = res.checks;

    const CounterDelta counters;
    const double busy0 = spanSeconds("measure.job");
    const double t0 = nowSeconds();
    GridRun g;
    {
        trace::Span span("bench.sweep");
        g = s.grid();
    }
    const double sweep_s = nowSeconds() - t0;
    const double busy = spanSeconds("measure.job") - busy0;
    checkGrid(s, g, reference, reference ? std::vector<Table>{}
                                         : goldenFor(s, seed),
              checks);
    const std::uint64_t points = counters.get("measure.jobs_run");

    SimTotals tot;
    std::vector<double> setup_s, point_s;
    double run_s = 0.0;
    std::vector<std::vector<std::uint64_t>> retired(s.points);
    for (std::size_t p = 0; p < s.points; ++p) {
        trace::Span span("bench.sim.point");
        const double a = nowSeconds();
        std::unique_ptr<Rig> rig = s.rig(p);
        const double b = nowSeconds();
        const std::vector<double> vals = rig->run();
        const double c = nowSeconds();
        setup_s.push_back(b - a);
        point_s.push_back(c - a);
        run_s += c - b;
        const sim::Machine &mach = rig->machine();
        tot.add(mach);
        for (int k = 0; k < mach.coreCount(); ++k)
            retired[p].push_back(mach.core(k).counters().instructions);

        const std::vector<double> *row = rowOf(g, p);
        bool same = row != nullptr;
        for (std::size_t i = 0; same && i < vals.size(); ++i)
            same = (*row)[s.replicaColumns[i]] == vals[i];
        checks.expect(same, 1,
                      "replica of point " + std::to_string(p) +
                          " differs from the sweep");
    }

    std::vector<Access> capture;
    double gen_s = 0.0;
    {
        trace::Span span("bench.workloads.gen");
        gen_s = regenerateStreams(s, retired, capture);
    }
    double cache_ns = 0.0, dram_ns = 0.0;
    {
        trace::Span span("bench.sim.cache");
        cache_ns = cacheNsPerAccess(s.machineConfig(0), capture);
    }
    {
        trace::Span span("bench.sim.dram");
        dram_ns = dramNsPerAccess(s.machineConfig(0), capture);
    }
    // Fits take micro- to milliseconds; repeat for a readable time.
    double fit_total = 0.0;
    int fits = 0;
    {
        trace::Span span("bench.model.fit");
        while (fits < 5 || (fit_total < 0.05 && fits < 1000)) {
            const double f0 = nowSeconds();
            g.refit();
            fit_total += nowSeconds() - f0;
            ++fits;
        }
    }

    const double l1_acc = static_cast<double>(tot.l1.accesses());
    const double l2_acc = static_cast<double>(tot.l2.accesses());
    const double llc_acc = static_cast<double>(tot.llc.accesses());
    m.add("workloads.gen_s", gen_s, "s");
    m.add("sim.l1.accesses", l1_acc, "count");
    m.add("sim.l2.accesses", l2_acc, "count");
    m.add("sim.llc.accesses", llc_acc, "count");
    m.add("sim.l1.miss_ratio",
          ratio(static_cast<double>(tot.l1.misses), l1_acc), "fraction");
    m.add("sim.l2.miss_ratio",
          ratio(static_cast<double>(tot.l2.misses), l2_acc), "fraction");
    m.add("sim.llc.miss_ratio",
          ratio(static_cast<double>(tot.llc.misses), llc_acc), "fraction");
    m.add("sim.llc.dirty_evictions",
          static_cast<double>(tot.llc.dirtyEvictions), "count");
    m.add("sim.cache.ns_per_access", cache_ns, "ns");
    m.add("sim.instructions", static_cast<double>(tot.instructions),
          "count");
    m.add("sim.run_s", run_s, "s");
    m.add("sim.minstr_per_s",
          ratio(static_cast<double>(tot.instructions) * 1e-6, run_s),
          "Minstr/s");
    m.add("sim.core.mshr_stall_frac", ratio(tot.mshrStallPs, tot.busyPs),
          "fraction");
    m.add("sim.core.dep_stall_frac", ratio(tot.depStallPs, tot.busyPs),
          "fraction");
    m.add("sim.dram.reads", static_cast<double>(tot.dramReads), "count");
    m.add("sim.dram.writes", static_cast<double>(tot.dramWrites), "count");
    m.add("sim.dram.row_hit_ratio",
          ratio(static_cast<double>(tot.rowHits),
                static_cast<double>(tot.rowHits + tot.rowMisses)),
          "fraction");
    m.add("sim.dram.bus_busy_frac", ratio(tot.busBusyPs, tot.channelPs),
          "fraction");
    m.add("sim.dram.queue_delay_ns",
          ratio(tot.queueDelayPs * 1e-3,
                static_cast<double>(tot.rowHits + tot.rowMisses)),
          "sim_ns");
    m.add("sim.dram.ns_per_access", dram_ns, "ns");
    m.add("measure.points", static_cast<double>(points), "count");
    m.add("measure.point_setup_s", medianOf(setup_s), "s");
    m.add("measure.point_p50_s", medianOf(point_s), "s");
    m.add("measure.point_max_s",
          *std::max_element(point_s.begin(), point_s.end()), "s");
    m.add("measure.pool_busy_frac", ratio(busy, kJobs * sweep_s),
          "fraction");
    m.add("model.fit_s", fit_total / fits, "s");

    res.exactCounts["measure.points"] = points;
    res.exactCounts["sim.instructions"] = tot.instructions;
    res.exactCounts["sim.l1.accesses"] = tot.l1.accesses();
    res.exactCounts["sim.l2.accesses"] = tot.l2.accesses();
    res.exactCounts["sim.llc.accesses"] = tot.llc.accesses();
    res.exactCounts["sim.llc.dirty_evictions"] = tot.llc.dirtyEvictions;
    res.exactCounts["sim.dram.reads"] = tot.dramReads;
    res.exactCounts["sim.dram.writes"] = tot.dramWrites;
    return sweep_s;
}

/**
 * Traced run of a sweep workload: an untraced grid, then the traced
 * simulator pass, then a serve probe so every per-layer metric is
 * measured; trace.overhead_frac compares the two grids.
 */
RunResult
runSweepTraced(const SweepSpec &s, const RunArgs &args)
{
    RunResult res;
    const auto serve_probe = prepareServeProbe(args.seed, res.checks);
    // Two grids on each side; the faster of each pair damps host noise.
    double t0 = nowSeconds();
    const GridRun reference = s.grid();
    double untraced = nowSeconds() - t0;
    checkGrid(s, reference, nullptr, goldenFor(s, args.seed), res.checks);
    t0 = nowSeconds();
    checkGrid(s, s.grid(), &reference, {}, res.checks);
    untraced = std::min(untraced, nowSeconds() - t0);

    TraceSession session(args.traceOut);
    double traced = simLayerPass(s, &reference, args.seed, res);
    t0 = nowSeconds();
    checkGrid(s, s.grid(), &reference, {}, res.checks);
    traced = std::min(traced, nowSeconds() - t0);
    serve_probe(res);
    res.metrics.add("trace.overhead_frac", traced / untraced - 1.0,
                    "fraction");
    return res;
}

} // anonymous namespace

RunResult
runSweepFig03(const RunArgs &args)
{
    const SweepSpec s = fig03Spec(kFig03Ids, args.seed);
    return args.trace ? runSweepTraced(s, args) : runSweep(s, args);
}

RunResult
runMlcFig07(const RunArgs &args)
{
    const SweepSpec s = fig07Spec(args.seed);
    return args.trace ? runSweepTraced(s, args) : runSweep(s, args);
}

void
simLayerProbe(std::uint64_t seed, RunResult &result)
{
    const SweepSpec s = fig03Spec({kFig03Ids.front()}, seed);
    simLayerPass(s, nullptr, seed, result);
}

} // namespace membench
