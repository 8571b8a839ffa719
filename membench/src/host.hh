/**
 * @file
 * The host record printed with every result, so that numbers from two
 * hosts or two build configurations are never compared unawares.
 */

#ifndef MEMBENCH_HOST_HH
#define MEMBENCH_HOST_HH

#include <string>

namespace membench
{

/** The 1-minute load average, or -1 when /proc/loadavg is unreadable. */
double loadAverage1();

/**
 * JSON object: CPU model, nproc, compiler, build type, the tracing and
 * fault-injection build options, and the load average before and after
 * the run.
 */
std::string hostRecordJson(double load_before, double load_after);

} // namespace membench

#endif // MEMBENCH_HOST_HH
