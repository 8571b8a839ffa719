#include "sim/config.hh"

#include <cmath>

#include "util/error.hh"

namespace memsense::sim
{

void
CacheConfig::validate() const
{
    requireConfig(ways >= 1 && ways <= 64,
                  "associativity must be in [1, 64]");
    requireConfig(sizeBytes >= static_cast<std::uint64_t>(ways) * kLineBytes,
                  "cache must hold at least one set");
    requireConfig(sizeBytes % (static_cast<std::uint64_t>(ways) *
                               kLineBytes) == 0,
                  "cache size must be a multiple of ways * line size");
}

void
PrefetcherConfig::validate() const
{
    if (!enabled)
        return;
    requireConfig(tableEntries >= 1 && tableEntries <= 256,
                  "prefetcher table entries must be in [1, 256]");
    requireConfig(degree >= 1 && degree <= 16,
                  "prefetch degree must be in [1, 16]");
    requireConfig(distance >= 1 && distance <= 64,
                  "prefetch distance must be in [1, 64]");
    requireConfig(trainThreshold >= 1,
                  "prefetcher train threshold must be at least 1");
}

void
CoreConfig::validate() const
{
    requireConfig(ghz > 0.0 && ghz <= 10.0,
                  "core frequency must be in (0, 10] GHz");
    requireConfig(issueWidth >= 0.25 && issueWidth <= 16.0,
                  "issue width must be in [0.25, 16]");
    // The core keeps time in 1/16-ps fixed point, which represents
    // one issue slot exactly only for power-of-two widths.
    int exp = 0;
    // memsense-lint: allow(float-equal): frexp of a power of two
    // returns exactly 0.5 — an exact-sentinel check by design
    requireConfig(std::frexp(issueWidth, &exp) == 0.5,
                  "issue width must be a power of two");
    requireConfig(mshrs >= 1 && mshrs <= 128,
                  "MSHR count must be in [1, 128]");
    prefetcher.validate();
}

void
DramConfig::validate() const
{
    requireConfig(channels >= 1 && channels <= 16,
                  "channel count must be in [1, 16]");
    requireConfig(megaTransfers > 0.0, "transfer rate must be positive");
    requireConfig(banksPerChannel >= 1 && banksPerChannel <= 64,
                  "banks per channel must be in [1, 64]");
    requireConfig(tCasNs > 0.0 && tRcdNs > 0.0 && tRpNs > 0.0,
                  "DDR timings must be positive");
    requireConfig(rowBytes >= kLineBytes &&
                      rowBytes % kLineBytes == 0,
                  "row size must be a positive multiple of the line size");
    requireConfig(uncoreNs >= 0.0, "uncore latency must be non-negative");
    requireConfig(busOverheadFactor >= 1.0 && busOverheadFactor <= 3.0,
                  "bus overhead factor must be in [1, 3]");
    requireConfig(writeBufferEntries >= 1,
                  "write buffer needs at least one entry");
    requireConfig(writeDrainWatermark > 0.0 && writeDrainWatermark <= 1.0,
                  "write drain watermark must be in (0, 1]");
}

void
MachineConfig::validate() const
{
    requireConfig(cores >= 1 && cores <= 256,
                  "core count must be in [1, 256]");
    core.validate();
    l1d.validate();
    l2.validate();
    // The shared LLC geometry is per-core size * cores; validate that.
    CacheConfig total = llcPerCore;
    total.sizeBytes = llcTotalBytes();
    total.validate();
    dram.validate();
}

} // namespace memsense::sim
