/**
 * @file
 * Table 7 reproduction: design tradeoffs — the performance value of
 * +1 GB/s/core of bandwidth vs. -10 ns of compulsory latency, and the
 * equivalence between the two, per workload class.
 *
 * Paper claims reproduced: enterprise and big data gain a few percent
 * from -10 ns and under ~1-2% from +1 GB/s/core; HPC gains ~20% from
 * bandwidth and nothing from latency; a finite tens-of-GB/s
 * bandwidth equivalence of 10 ns exists for enterprise/big data
 * (paper: 39.7 / 27.1 GB/s) while no latency reduction can match
 * bandwidth for HPC.
 */

#include <cmath>

#include "model_common.hh"
#include "model/equivalence.hh"
#include "serve/evaluator.hh"

using namespace memsense;
using namespace memsense::bench;

namespace
{

std::string
fmtOrNone(double v, const char *unit)
{
    if (std::isinf(v))
        return "none possible";
    // memsense-lint: allow(float-equal): exact 0.0 sentinel from the solver
    if (v == 0.0)
        return "0 (no benefit to match)";
    return strformat("%.1f %s", v, unit);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const BenchSpec spec{.declare = addMeasuredFlag};
    return benchMain(argc, argv, [](const BenchArgs &args) {
        header("Table 7",
               "Design tradeoffs: +1 GB/s/core vs. -10 ns, and their "
               "equivalence, on the paper baseline");

        model::Platform base = model::Platform::paperBaseline();
        // The equivalence bisections revisit the same operating points
        // (every class shares the baseline, every probe re-solves it), so
        // run them through the memoizing evaluator instead of bare solves.
        serve::Evaluator eval(makeSolver(args));
        model::EquivalenceAnalyzer an(eval, base);

        Table t({"Class", "baseline CPI", "+1 GB/s/core gain",
                 "-10 ns gain", "BW equivalent of 10 ns",
                 "latency equiv. of 1 GB/s/core", "paper: BW equiv",
                 "paper: lat equiv"});
        std::vector<std::vector<double>> csv;
        auto paper_rows = model::paper::table7();
        const auto mixes = classMixes();
        for (const auto &p : mixes) {
            model::TradeoffSummary s = an.summarize(p);
            // Match this class's published row.
            const model::paper::Table7Row *ref = nullptr;
            for (const auto &r : paper_rows)
                if (r.cls == p.cls)
                    ref = &r;
            t.addRow({s.name, formatDouble(s.baselineCpi, 3),
                      formatPercent(s.perfGainBandwidthPct / 100.0, 2),
                      formatPercent(s.perfGainLatencyPct / 100.0, 2),
                      fmtOrNone(s.bandwidthEquivalentGBps, "GB/s"),
                      fmtOrNone(s.latencyEquivalentNs, "ns"),
                      ref ? fmtOrNone(ref->bandwidthEquivalentGBps, "GB/s")
                          : "-",
                      ref ? fmtOrNone(ref->latencyEquivalentNs, "ns") : "-"});
            csv.push_back({s.baselineCpi, s.perfGainBandwidthPct,
                           s.perfGainLatencyPct, s.bandwidthEquivalentGBps,
                           s.latencyEquivalentNs});
        }
        t.setFootnote(
            "\nPaper headline: optimize bandwidth first for HPC-like "
            "mixes; optimize latency for enterprise/big data — latency "
            "reduction is \"easier and more profitable\" there.");
        t.print(std::cout);
        csvBlock("tab7",
                 {"baseline_cpi", "bw_gain_pct", "lat_gain_pct",
                  "bw_equiv_gbps", "lat_equiv_ns"},
                 csv);
        const serve::CacheStats cs = eval.cacheStats();
        inform(strformat("evaluator cache: %llu hits / %llu misses "
                         "(%zu distinct operating points)",
                         static_cast<unsigned long long>(cs.hits),
                         static_cast<unsigned long long>(cs.misses),
                         cs.size));
    }, spec);
}
