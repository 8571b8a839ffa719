/**
 * @file
 * Ablation (paper Sec. VII): "an improved prefetching technique will
 * increase memory-level parallelism and will lower the blocking
 * factor."
 *
 * Characterizes one streaming (bwaves) and one irregular (OLTP)
 * workload with the stride prefetcher enabled and disabled. The
 * streaming workload's BF collapses with prefetching; the
 * pointer-heavy workload's barely moves — exactly the asymmetry the
 * paper uses to explain the class separation of Fig. 6.
 */

#include "characterize_common.hh"

using namespace memsense;
using namespace memsense::bench;

int
main(int argc, char **argv)
{
    return benchMain(argc, argv, [](const BenchArgs &) {
        header("Ablation: prefetcher",
               "Blocking factor with the stride prefetcher on vs. off");

        measure::FreqScalingConfig cfg = sweepConfig(true);
        Table t({"Workload", "BF (prefetch on)", "BF (prefetch off)",
                 "MPKI on", "MPKI off"});
        std::vector<std::vector<double>> csv;
        for (const char *id : {"bwaves", "column_store", "oltp"}) {
            cfg.prefetcherEnabled = true;
            auto on = measure::characterize(id, cfg);
            cfg.prefetcherEnabled = false;
            auto off = measure::characterize(id, cfg);
            t.addRow({workloads::workloadInfo(id).display,
                      formatDouble(on.model.params.bf, 3),
                      formatDouble(off.model.params.bf, 3),
                      formatDouble(on.model.params.mpki, 1),
                      formatDouble(off.model.params.mpki, 1)});
            csv.push_back({on.model.params.bf, off.model.params.bf,
                           on.model.params.mpki, off.model.params.mpki});
        }
        t.setFootnote("\nPaper claim: prefetching lowers BF where access "
                      "is regular (streaming bwaves) but cannot help "
                      "dependent pointer chasing (OLTP).");
        t.print(std::cout);
        csvBlock("ablation_prefetcher",
                 {"bf_on", "bf_off", "mpki_on", "mpki_off"}, csv);
    });
}
