/**
 * @file
 * The simulated core: consumes a micro-op stream and produces timing.
 *
 * The core abstracts a superscalar pipeline the way the paper's model
 * does: compute instructions retire at the issue width; loads and
 * stores walk a private L1/L2 and the shared LLC; LLC misses occupy
 * MSHRs (the MLP limit) and either overlap with execution (independent
 * misses) or stall the core until fill (dependent misses, i.e. pointer
 * chases). The measured blocking factor of a workload *emerges* from
 * its dependent-load fraction, the MSHR count, and prefetch coverage.
 */

#ifndef MEMSENSE_SIM_CORE_HH
#define MEMSENSE_SIM_CORE_HH

#include <cstdint>
#include <vector>

#include "sim/cache.hh"
#include "sim/config.hh"
#include "sim/memctrl.hh"
#include "sim/microop.hh"
#include "sim/prefetcher.hh"
#include "util/units.hh"

namespace memsense::sim
{

/** Per-core performance counters (the PMU facade). */
struct CoreCounters
{
    std::uint64_t instructions = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t ntStores = 0;
    std::uint64_t llcDemandMisses = 0;   ///< demand lines fetched
    std::uint64_t llcPrefetchFetches = 0;///< prefetch lines fetched
    Picos dramLatencyTotal = 0; ///< summed DRAM latency, demand+prefetch
    std::uint64_t writebacks = 0;        ///< dirty LLC evictions +
                                         ///< non-temporal stores
    Picos busyTime = 0;  ///< non-idle core time
    Picos idleTime = 0;  ///< halted (Idle op) time
    Picos mshrStall = 0; ///< time stalled on MSHR exhaustion
    Picos depStall = 0;  ///< time stalled on dependent misses
    Picos robStall = 0;  ///< time stalled running ahead of in-flight
                         ///< independent loads

    /** All lines this core fetched from DRAM (MPI numerator). */
    std::uint64_t memoryFetches() const
    {
        return llcDemandMisses + llcPrefetchFetches;
    }

    /** Average DRAM latency over this core's fetches, in ns. */
    double avgMissPenaltyNs() const
    {
        std::uint64_t f = memoryFetches();
        return f ? picosToNs(dramLatencyTotal) / static_cast<double>(f)
                 : 0.0;
    }

    /** Misses (demand + prefetch) per kilo-instruction. */
    double mpki() const
    {
        return instructions ? 1000.0 *
                                  static_cast<double>(memoryFetches()) /
                                  static_cast<double>(instructions)
                            : 0.0;
    }

    /** Writebacks per miss (the paper's WBR). */
    double wbr() const
    {
        std::uint64_t f = memoryFetches();
        return f ? static_cast<double>(writebacks) /
                       static_cast<double>(f)
                 : 0.0;
    }
};

/**
 * One simulated core with private L1D and L2.
 *
 * Owned and driven by Machine; runUntil() advances local time by
 * consuming ops. The shared LLC and memory controller are borrowed
 * references owned by the Machine.
 */
class SimCore
{
  public:
    /**
     * @param id      core index (diagnostics)
     * @param mc      machine configuration (core + cache geometry)
     * @param llc     shared last-level cache (borrowed)
     * @param mem     memory controller (borrowed)
     * @param arena   optional bump allocator backing the private
     *                cache arrays (borrowed; must outlive the core)
     */
    SimCore(int id, const MachineConfig &mc, SetAssocCache &llc,
            MemoryController &mem, util::Arena *arena = nullptr);

    /** Attach the op stream to execute (borrowed; must outlive runs). */
    void bind(OpStream &stream)
    {
        ops = &stream;
        // Drop any run acquired from a previously bound stream.
        opRun = nullptr;
        opPos = opCount = 0;
    }

    /** Local core time. */
    Picos now() const { return timePs; }

    /**
     * Execute ops until local time reaches @p until or the stream
     * ends.
     *
     * @return false when the stream ended
     */
    bool runUntil(Picos until);

    /** True once the bound stream has ended. */
    bool done() const { return streamEnded; }

    /** True when an op stream is bound to this core. */
    bool hasStream() const { return ops != nullptr; }

    /** Counter accessor. */
    const CoreCounters &counters() const { return ctrs; }

    /** Reset counters (not caches or time). */
    void clearCounters() { ctrs = CoreCounters{}; }

    /** Private L1 stats (tests). */
    const SetAssocCache &l1() const { return l1d; }

    /** Private L2 stats (tests). */
    const SetAssocCache &l2() const { return l2c; }

    /** Prefetcher stats (tests). */
    const StridePrefetcher &prefetcher() const { return pf; }

    /** The core's clock. */
    // memsense-lint: allow(no-nondeterminism): simulated Clock, not wall time
    const Clock &clock() const { return clk; }

  private:
    /** Advance local time by @p ticks 1/16-ps units. */
    void advanceTicks(std::uint64_t ticks)
    {
        ticks += carryTicks;
        timePs += ticks >> kTickShift;
        carryTicks = ticks & (kTicksPerPs - 1);
    }

    /** Handle one op. */
    void apply(const MicroOp &op);

    /** Load/store path; returns after timing is charged. */
    void access(const MicroOp &op, bool is_write);

    /**
     * Charge the wait for a line whose data arrives at @p fill_time:
     * dependent consumers wait for the data itself, independent ones
     * stall only past the ROB run-ahead window.
     */
    void waitForFill(Picos fill_time, bool dependent);

    /** Fetch a line from DRAM, allocating through the hierarchy. */
    void fetchLine(Addr line, bool is_write, bool dependent,
                   std::uint16_t stream_id);

    /** Issue prefetches triggered by a demand miss. */
    void maybePrefetch(std::uint16_t stream_id, Addr line);

    /** Install a line into LLC/L2/L1, routing dirty victims. */
    void installLine(Addr line, bool is_write, Picos fill_time);

    /** Install into L2 (and L1), cascading dirty victims outward. */
    void installIntoL2(Addr line, bool is_write, Picos fill_time);

    /** Install into L1, cascading dirty victims outward. */
    void installIntoL1(Addr line, bool is_write, Picos fill_time);

    /** Reclaim completed MSHRs; stall if all are busy. */
    void reserveMshr();

    int id;
    const MachineConfig &mc;
    Clock clk;
    SetAssocCache l1d;
    SetAssocCache l2c;
    SetAssocCache &llc;
    MemoryController &mem;
    StridePrefetcher pf;
    OpStream *ops = nullptr;
    bool streamEnded = false;

    /**
     * Current op run: runUntil() acquires runs from the stream (one
     * virtual acquireRun() per run instead of one next() per op) and
     * consumes them in place. Ops left over when a quantum deadline
     * hits are consumed by the next quantum, so the executed sequence
     * is exactly the stream's sequence.
     */
    const MicroOp *opRun = nullptr;
    std::size_t opPos = 0;   ///< next unconsumed op in opRun
    std::size_t opCount = 0; ///< valid ops in opRun

    /**
     * Local time is fixed point: whole picoseconds plus a carry in
     * 1/16-ps ticks. Every power-of-two issue width in [0.25, 16]
     * makes one instruction's issue cost a whole number of ticks, so
     * the arithmetic is exact integer math (the width is validated to
     * be a power of two).
     */
    static constexpr unsigned kTickShift = 4;
    static constexpr std::uint64_t kTicksPerPs = std::uint64_t{1}
                                                 << kTickShift;
    Picos timePs = 0;
    std::uint64_t carryTicks = 0; ///< sub-picosecond remainder
    std::uint64_t cycleTicks = 0; ///< one core cycle
    std::uint64_t issueTicks = 0; ///< one instruction's issue slot
    Picos robWindowPs;    ///< run-ahead slack for independent loads
    /** @{ Completion times of outstanding misses and prefetches, as
     *  min-heaps (std::greater): only the multiset of times matters,
     *  and reclaiming pops just the entries that have completed. */
    std::vector<Picos> mshrBusy;
    std::vector<Picos> pfBusy;
    /** @} */
    std::vector<Addr> pfCandidates; ///< scratch for prefetch candidates
    CoreCounters ctrs;
};

} // namespace memsense::sim

#endif // MEMSENSE_SIM_CORE_HH
