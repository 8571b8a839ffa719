/**
 * @file
 * The two paper-sweep workloads, sweep_fig03 and mlc_fig07, and the
 * traced pass over the simulator layers they exercise.
 */

#ifndef MEMBENCH_SWEEPS_HH
#define MEMBENCH_SWEEPS_HH

#include "common.hh"

namespace membench
{

/** Run sweep_fig03 (measure::characterizeMany on fig03's fast grid). */
RunResult runSweepFig03(const RunArgs &args);

/** Run mlc_fig07 (measure::sweepLoadedLatency on fig07's fast grid). */
RunResult runMlcFig07(const RunArgs &args);

/**
 * Traced simulator-layer pass for a workload that runs no simulation:
 * fig03's grid restricted to one catalog workload. Adds the sim,
 * workloads, measure and model.fit metrics to @p result.
 */
void simLayerProbe(std::uint64_t seed, RunResult &result);

} // namespace membench

#endif // MEMBENCH_SWEEPS_HH
