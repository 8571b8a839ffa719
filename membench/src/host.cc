#include "host.hh"

#include <unistd.h>

#include <cstdio>
#include <fstream>

namespace membench
{

namespace
{

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

/** @p s with quotes, backslashes and control characters escaped. */
std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out + "\"";
}

} // anonymous namespace

double
loadAverage1()
{
    std::ifstream in("/proc/loadavg");
    double load = -1.0;
    in >> load;
    return in ? load : -1.0;
}

std::string
hostRecordJson(double load_before, double load_after)
{
#ifdef MEMSENSE_NO_TRACING
    const bool tracing = false;
#else
    const bool tracing = true;
#endif
#ifdef MEMSENSE_NO_FAULT_INJECTION
    const bool faults = false;
#else
    const bool faults = true;
#endif
    char loads[96];
    std::snprintf(loads, sizeof loads,
                  "\"loadavg_before\": %.2f, \"loadavg_after\": %.2f",
                  load_before, load_after);
    return "{\"cpu\": " + jsonString(cpuModel()) +
           ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
#ifdef __clang__
           ", \"compiler\": " + jsonString("clang " __clang_version__) +
#else
           ", \"compiler\": " + jsonString("gcc " __VERSION__) +
#endif
           ", \"build_type\": " + jsonString(MEMBENCH_BUILD_TYPE) +
           ", \"memsense_tracing\": " + (tracing ? "true" : "false") +
           ", \"memsense_fault_injection\": " + (faults ? "true" : "false") +
           ", " + loads + "}";
}

} // namespace membench
