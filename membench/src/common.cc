#include "common.hh"

#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/trace.hh"

namespace membench
{

namespace
{

/** FNV-1a of this executable, so stored counts never outlive a rebuild. */
std::uint64_t
binaryFingerprint()
{
    std::ifstream in("/proc/self/exe", std::ios::binary);
    std::uint64_t h = 1469598103934665603ull;
    char buf[1 << 16];
    while (in.read(buf, sizeof buf) || in.gcount() > 0) {
        for (std::streamsize i = 0; i < in.gcount(); ++i) {
            h ^= static_cast<unsigned char>(buf[i]);
            h *= 1099511628211ull;
        }
    }
    return h;
}

} // anonymous namespace

TraceSession::TraceSession(const std::string &path)
{
    memsense::trace::startTracing(path);
    memsense::trace::setStatsEnabled(true);
}

TraceSession::~TraceSession()
{
    memsense::trace::setStatsEnabled(false);
    try {
        memsense::trace::stopTracing();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "membench: cannot write the trace: %s\n",
                     e.what());
    }
}

CounterDelta::CounterDelta()
    : base(memsense::trace::counterTotals())
{}

std::uint64_t
CounterDelta::get(const std::string &name) const
{
    const auto now = memsense::trace::counterTotals();
    const auto n = now.find(name);
    const auto b = base.find(name);
    return (n == now.end() ? 0 : n->second) -
           (b == base.end() ? 0 : b->second);
}

double
spanSeconds(const std::string &site)
{
    const auto spans = memsense::trace::spanStats();
    const auto it = spans.find(site);
    return it == spans.end() ? 0.0
                             : static_cast<double>(it->second.totalNs) * 1e-9;
}

void
checkExactCounts(const RunArgs &args,
                 const std::map<std::string, std::uint64_t> &counts,
                 Checks &checks)
{
    namespace fs = std::filesystem;
    char name[128];
    std::snprintf(name, sizeof name, "%s-seed%llu-%016llx.counts",
                  args.workload.c_str(),
                  static_cast<unsigned long long>(args.seed),
                  static_cast<unsigned long long>(binaryFingerprint()));
    const fs::path path = fs::path(args.stateDir) / name;

    std::ostringstream now;
    for (const auto &[key, value] : counts)
        now << key << ' ' << value << '\n';

    std::ifstream in(path);
    if (in) {
        std::stringstream before;
        before << in.rdbuf();
        checks.expect(before.str() == now.str(), 1,
                      "exact counts differ from the earlier run at this "
                      "seed (" + path.string() + ")");
        return;
    }
    fs::create_directories(args.stateDir);
    std::ofstream out(path);
    out << now.str();
    checks.expect(static_cast<bool>(out), 1,
                  "cannot store exact counts at " + path.string());
}

} // namespace membench
