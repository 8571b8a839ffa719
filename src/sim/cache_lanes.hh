/**
 * @file
 * Byte-lane kernels over a cache set's directory (see cache.hh).
 *
 * A set's directory is one 64-byte line per group of 16 ways, each
 * line holding three 16-byte lane arrays (fingerprints, replacement
 * state, metadata) at fixed offsets. The kernels below operate on one
 * of those arrays across every group of a set: `lanes` points at the
 * array in group 0, and group g's copy sits kGroupStride bytes later.
 *
 * The SSE2 kernels are what the simulator runs on x86-64, where SSE2
 * is part of the base ISA; the scalar ones are the portable fallback
 * for other targets. Both are always compiled so tests can check one
 * against the other lane for lane.
 */

#ifndef MEMSENSE_SIM_CACHE_LANES_HH
#define MEMSENSE_SIM_CACHE_LANES_HH

#include <cstddef>
#include <cstdint>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace memsense::sim::lanes
{

/** Ways per directory group (one SSE2 register of byte lanes). */
constexpr unsigned kGroupWays = 16;

/** Bytes between consecutive groups of one set (one host line). */
constexpr std::size_t kGroupStride = 64;

namespace scalar
{

/** Bit i set when lane i equals @p v, over @p groups x 16 lanes. */
inline std::uint64_t
eqMask(const std::uint8_t *lanes, std::uint8_t v, unsigned groups)
{
    std::uint64_t mask = 0;
    for (unsigned g = 0; g < groups; ++g) {
        const std::uint8_t *p = lanes + g * kGroupStride;
        for (unsigned i = 0; i < kGroupWays; ++i)
            if (p[i] == v)
                mask |= std::uint64_t{1} << (g * kGroupWays + i);
    }
    return mask;
}

/** Add one to every lane below @p r (lanes and r below 128). */
inline void
ageBelow(std::uint8_t *lanes, std::uint8_t r, unsigned groups)
{
    for (unsigned g = 0; g < groups; ++g) {
        std::uint8_t *p = lanes + g * kGroupStride;
        for (unsigned i = 0; i < kGroupWays; ++i)
            if (p[i] < r)
                ++p[i];
    }
}

} // namespace scalar

#if defined(__SSE2__)
namespace sse2
{

/** Bit i set when lane i equals @p v, over @p groups x 16 lanes. */
inline std::uint64_t
eqMask(const std::uint8_t *lanes, std::uint8_t v, unsigned groups)
{
    const __m128i needle = _mm_set1_epi8(static_cast<char>(v));
    std::uint64_t mask = 0;
    for (unsigned g = 0; g < groups; ++g) {
        const __m128i x = _mm_load_si128(
            reinterpret_cast<const __m128i *>(lanes + g * kGroupStride));
        const auto bits = static_cast<std::uint32_t>(
            _mm_movemask_epi8(_mm_cmpeq_epi8(x, needle)));
        mask |= std::uint64_t{bits} << (g * kGroupWays);
    }
    return mask;
}

/**
 * Add one to every lane below @p r. The compare is signed, which is
 * exact because every lane and @p r stay below 128 (LRU ranks are
 * below 64; padding lanes hold kPadRank).
 */
inline void
ageBelow(std::uint8_t *lanes, std::uint8_t r, unsigned groups)
{
    const __m128i bound = _mm_set1_epi8(static_cast<char>(r));
    for (unsigned g = 0; g < groups; ++g) {
        auto *p = reinterpret_cast<__m128i *>(lanes + g * kGroupStride);
        const __m128i x = _mm_load_si128(p);
        // cmplt yields -1 in the lanes to age; subtracting adds one.
        _mm_store_si128(p, _mm_sub_epi8(x, _mm_cmplt_epi8(x, bound)));
    }
}

} // namespace sse2
#endif

/** The kernels the cache runs on this target. */
#if defined(__SSE2__)
using sse2::ageBelow;
using sse2::eqMask;
#else
using scalar::ageBelow;
using scalar::eqMask;
#endif

} // namespace memsense::sim::lanes

#endif // MEMSENSE_SIM_CACHE_LANES_HH
