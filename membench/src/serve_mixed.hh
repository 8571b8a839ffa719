/**
 * @file
 * The serve_mixed workload: an in-process serve::Server driven by a
 * seeded half-hot, half-unique request mix, open loop then closed loop.
 */

#ifndef MEMBENCH_SERVE_MIXED_HH
#define MEMBENCH_SERVE_MIXED_HH

#include <functional>

#include "common.hh"

namespace membench
{

/** Run serve_mixed. */
RunResult runServeMixed(const RunArgs &args);

/**
 * A small traced serve pass for a workload that does not serve, so its
 * traced run measures every layer. Call this before tracing starts: it
 * builds the inputs and times the per-call costs (parse, encode, probe,
 * solve) untraced; a reference solve that fails fails an operation in
 * @p checks. The returned pass, run once tracing is on, adds the serve,
 * model.solver and loadgen metrics and exact counts to its argument.
 */
std::function<void(RunResult &)> prepareServeProbe(std::uint64_t seed,
                                                   Checks &checks);

} // namespace membench

#endif // MEMBENCH_SERVE_MIXED_HH
