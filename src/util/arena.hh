/**
 * @file
 * Bump (arena) allocator for hot-path data structures.
 *
 * The simulator and serve layers allocate long-lived, fixed-size
 * arrays (cache tag arrays, write-buffer rings, per-request key
 * scratch) whose lifetimes all end together — with the owning Machine
 * or at the end of a batch. A bump allocator turns each of those
 * allocations into a pointer increment, packs them contiguously (so
 * arrays that are touched together share pages), and frees them all
 * at once, eliminating per-object heap churn and allocator metadata
 * between hot arrays.
 *
 * Design:
 *  - Memory is carved from geometrically chained blocks; allocation
 *    is an aligned bump of the current block's cursor.
 *  - Requests larger than half the block size get a dedicated
 *    "large" block so they cannot strand most of a normal block.
 *  - reset() retains normal blocks for reuse (capacity is kept warm
 *    across batches) but releases large blocks, and re-poisons the
 *    retained payload under AddressSanitizer so any use-after-reset
 *    faults immediately instead of silently reading stale data.
 *  - Individual deallocation is a no-op by design: ArenaAllocator
 *    makes that explicit for standard containers. Containers backed
 *    by an arena must therefore size themselves once (reserve) —
 *    growth would strand the old buffer until reset. The
 *    no-hot-loop-alloc lint rule and the sizing discipline in
 *    src/sim keep this from happening on hot paths.
 *
 * The arena is deliberately not thread-safe: each Machine (one sweep
 * point, one worker thread) owns its own arena, which is also what
 * keeps its blocks NUMA-local to the worker that faults them in.
 */

#ifndef MEMSENSE_UTIL_ARENA_HH
#define MEMSENSE_UTIL_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define MEMSENSE_ARENA_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MEMSENSE_ARENA_ASAN 1
#endif
#endif
#ifndef MEMSENSE_ARENA_ASAN
#define MEMSENSE_ARENA_ASAN 0
#endif

#if MEMSENSE_ARENA_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace memsense::util
{

/** A growable bump allocator; see the file comment for the design. */
class Arena
{
  public:
    /** Default size of a normal block (64 KiB). */
    static constexpr std::size_t kDefaultBlockBytes = std::size_t{1} << 16;

    explicit Arena(std::size_t block_bytes = kDefaultBlockBytes)
        : blockBytes(block_bytes ? block_bytes : kDefaultBlockBytes)
    {
    }

    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    /**
     * Allocate @p bytes aligned to @p align (a power of two).
     * Zero-byte requests return a unique, valid, unusable pointer.
     */
    void *allocate(std::size_t bytes,
                   std::size_t align = alignof(std::max_align_t))
    {
        if (bytes == 0)
            bytes = 1;
        if (align == 0)
            align = 1;
        if (bytes > blockBytes / 2 || align > blockBytes / 4)
            return allocateLarge(bytes, align);
        if (cur < blocks.size()) {
            if (void *p = tryBump(blocks[cur], bytes, align))
                return p;
            // The current block is exhausted; later blocks (from a
            // previous reset) may still have room.
            while (cur + 1 < blocks.size()) {
                ++cur;
                if (void *p = tryBump(blocks[cur], bytes, align))
                    return p;
            }
        }
        blocks.push_back(Block::make(blockBytes));
        cur = blocks.size() - 1;
        return tryBump(blocks[cur], bytes, align);
    }

    /** Typed array allocation (uninitialized storage for @p n Ts). */
    template <typename T> T *allocateArray(std::size_t n)
    {
        return static_cast<T *>(allocate(n * sizeof(T), alignof(T)));
    }

    /**
     * Discard every allocation at once. Normal blocks are retained
     * (and poisoned under ASan) for reuse; large blocks are released.
     */
    void reset()
    {
        for (Block &b : blocks) {
            b.used = 0;
            poison(b.data.get(), b.capacity);
        }
        large.clear();
        cur = 0;
        liveBytes = 0;
    }

    /** Bytes handed out since construction or the last reset(). */
    std::size_t bytesAllocated() const { return liveBytes; }

    /** Total capacity currently held (normal + large blocks). */
    std::size_t bytesReserved() const
    {
        std::size_t n = 0;
        for (const Block &b : blocks)
            n += b.capacity;
        for (const Block &b : large)
            n += b.capacity;
        return n;
    }

    /** Number of normal blocks held. */
    std::size_t blockCount() const { return blocks.size(); }

    /** Number of live oversized (dedicated-block) allocations. */
    std::size_t largeAllocCount() const { return large.size(); }

  private:
    struct Block
    {
        std::unique_ptr<unsigned char[]> data;
        std::size_t capacity = 0;
        std::size_t used = 0;

        static Block make(std::size_t capacity)
        {
            Block b;
            // Uninitialized: every user writes what it reads, and
            // zeroing here would touch a multi-megabyte LLC slab once
            // more before its owner writes it.
            b.data = std::make_unique_for_overwrite<unsigned char[]>(capacity);
            b.capacity = capacity;
            Arena::poison(b.data.get(), capacity);
            return b;
        }
    };

    static void poison(const void *p, std::size_t n)
    {
#if MEMSENSE_ARENA_ASAN
        __asan_poison_memory_region(p, n);
#else
        (void)p;
        (void)n;
#endif
    }

    static void unpoison(const void *p, std::size_t n)
    {
#if MEMSENSE_ARENA_ASAN
        __asan_unpoison_memory_region(p, n);
#else
        (void)p;
        (void)n;
#endif
    }

    void *tryBump(Block &b, std::size_t bytes, std::size_t align)
    {
        const auto addr = reinterpret_cast<std::uintptr_t>(b.data.get());
        const std::size_t aligned =
            (static_cast<std::size_t>(addr) + b.used + (align - 1)) &
            ~(align - 1);
        const std::size_t offset = aligned - static_cast<std::size_t>(addr);
        if (offset + bytes > b.capacity)
            return nullptr;
        b.used = offset + bytes;
        liveBytes += bytes;
        void *p = b.data.get() + offset;
        unpoison(p, bytes);
        return p;
    }

    void *allocateLarge(std::size_t bytes, std::size_t align)
    {
        // Over-allocate so any alignment can be honored inside the
        // block; new[] only guarantees max_align_t.
        const std::size_t pad = align > alignof(std::max_align_t)
                                    ? align - 1
                                    : 0;
        large.push_back(Block::make(bytes + pad));
        Block &b = large.back();
        const auto addr = reinterpret_cast<std::uintptr_t>(b.data.get());
        const std::size_t aligned =
            (static_cast<std::size_t>(addr) + (align - 1)) & ~(align - 1);
        b.used = b.capacity;
        liveBytes += bytes;
        void *p = b.data.get() + (aligned - static_cast<std::size_t>(addr));
        unpoison(p, bytes);
        return p;
    }

    std::size_t blockBytes;
    std::vector<Block> blocks;  ///< normal blocks, reused across reset()
    std::vector<Block> large;   ///< dedicated blocks, freed on reset()
    std::size_t cur = 0;        ///< index of the block being bumped
    std::size_t liveBytes = 0;
};

/**
 * std::allocator-compatible adapter over Arena.
 *
 * Default-constructed (arena == nullptr) it degrades to plain heap
 * allocation, so containers stay usable in tests and cold paths
 * without an arena. deallocate() is a no-op for arena-backed storage;
 * containers using it must size once up front (see Arena's comment).
 */
template <typename T> class ArenaAllocator
{
  public:
    using value_type = T;

    ArenaAllocator() noexcept = default;
    explicit ArenaAllocator(Arena *arena_in) noexcept : _arena(arena_in) {}
    template <typename U>
    ArenaAllocator(const ArenaAllocator<U> &other) noexcept
        : _arena(other.arena())
    {
    }

    T *allocate(std::size_t n)
    {
        if (_arena)
            return _arena->allocateArray<T>(n);
        return static_cast<T *>(
            ::operator new(n * sizeof(T), std::align_val_t(alignof(T))));
    }

    void deallocate(T *p, std::size_t n) noexcept
    {
        if (_arena)
            return; // reclaimed wholesale by Arena::reset()/dtor
        (void)n;
        ::operator delete(p, std::align_val_t(alignof(T)));
    }

    Arena *arena() const noexcept { return _arena; }

    friend bool operator==(const ArenaAllocator &a,
                           const ArenaAllocator &b) noexcept
    {
        return a._arena == b._arena;
    }

  private:
    Arena *_arena = nullptr;
};

/** Shorthand for an arena-backed (or heap-fallback) vector. */
template <typename T>
using ArenaVector = std::vector<T, ArenaAllocator<T>>;

/**
 * A cache-line-aligned raw byte buffer, arena-backed when an arena is
 * supplied and heap-backed otherwise. Used for layouts where one
 * buffer holds several element types at computed offsets (the cache's
 * set directory lines followed by its slot array), which std::vector
 * cannot express.
 */
class AlignedSlab
{
  public:
    static constexpr std::size_t kAlign = 64;

    AlignedSlab() = default;
    AlignedSlab(const AlignedSlab &) = delete;
    AlignedSlab &operator=(const AlignedSlab &) = delete;

    ~AlignedSlab()
    {
        if (heapMem)
            ::operator delete(heapMem, std::align_val_t(kAlign));
    }

    /**
     * Allocate @p bytes; callable exactly once. Pass @p zero = false
     * when the caller writes every field before reading it (e.g. the
     * cache constructor writes its directory, and a slot is read only
     * after it is installed): zeroing a multi-megabyte LLC slab that
     * is about to be overwritten is a second full sweep of the buffer
     * for nothing.
     */
    void init(std::size_t bytes, Arena *arena, bool zero = true)
    {
        if (bytes == 0)
            bytes = 1;
        if (arena) {
            mem = static_cast<unsigned char *>(
                arena->allocate(bytes, kAlign));
        } else {
            heapMem = ::operator new(bytes, std::align_val_t(kAlign));
            mem = static_cast<unsigned char *>(heapMem);
        }
        if (zero) {
            for (std::size_t i = 0; i < bytes; ++i)
                mem[i] = 0;
        }
    }

    unsigned char *data() { return mem; }
    const unsigned char *data() const { return mem; }

  private:
    unsigned char *mem = nullptr;
    void *heapMem = nullptr; ///< set only for the heap fallback
};

} // namespace memsense::util

#endif // MEMSENSE_UTIL_ARENA_HH
