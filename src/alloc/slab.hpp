// Shared slab region — the storage engine under every pool in this repo:
// lfrc::alloc::arena (every counted node and the epoch retire records) and
// alloc::block_pool (the Valois comparator, the ABA demo and the frozen
// DCAS baseline pools in bench_e10).
//
// A slab_directory owns one virtual-address region, reserved with
// MAP_NORESERVE on the first carve, sized for max_chunks chunks of
// slots_per_chunk fixed-size slots, and *never unmapped* while the
// directory lives — the type-stable property the Valois-style freelist
// regime (paper §1) and every tagged-freelist consumer here depend on: a
// stale thread may still dereference a recycled slot, so the storage under
// any index handed out once must stay readable forever. Pages are backed
// only as carving touches them.
//
// A slot's 32-bit index and its address are each other's arithmetic:
// base + index * stride one way, a multiply by a precomputed reciprocal the
// other. Slots are exactly `stride` bytes apart, with nothing between them.
//
// Carving is per registry slot: each thread_registry slot claims whole
// chunks (one fetch_add per chunk) and carves them alone, and the chunk
// records that slot as its `home`. Behind the slots the region holds a u32
// side link per slot and a u16 home per chunk, so a consumer can string
// free slots together without writing into them (alloc::arena does).
//
// Freelist policy is the CONSUMER's job: this class only carves and
// resolves indices. Consumers string slots together with the 32-bit-tag /
// 32-bit-index packed head word (tagged_head below) so a single 64-bit CAS
// both swings the list and advances the ABA tag.
#pragma once

#include <sys/mman.h>

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>

#include "alloc/stats.hpp"
#include "util/cacheline.hpp"
#include "util/thread_registry.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define LFRC_ARENA_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define LFRC_ARENA_ASAN 1
#endif
#endif

#if defined(LFRC_ARENA_ASAN)
#include <sanitizer/asan_interface.h>
#endif

namespace lfrc::alloc {

/// Manual AddressSanitizer poisoning for recycled storage the sanitizer's
/// own heap bookkeeping never sees; no-ops in other builds.
inline void asan_poison(void* p, std::size_t n) noexcept {
#if defined(LFRC_ARENA_ASAN)
    __asan_poison_memory_region(p, n);
#else
    (void)p;
    (void)n;
#endif
}

inline void asan_unpoison(void* p, std::size_t n) noexcept {
#if defined(LFRC_ARENA_ASAN)
    __asan_unpoison_memory_region(p, n);
#else
    (void)p;
    (void)n;
#endif
}

/// Packing helpers for the 64-bit freelist head word shared by every
/// tagged-freelist consumer: high 32 bits an ABA tag, low 32 bits a slot
/// index into a slab_directory. The tag advances on every successful head
/// CAS, so a head that returns to an old index cannot match an old tag —
/// the single-word DCAS substitute that defeats freelist ABA.
struct tagged_head {
    static constexpr std::uint32_t null_index = 0xffffffffu;

    static std::uint32_t index_of(std::uint64_t head) noexcept {
        return static_cast<std::uint32_t>(head);
    }
    static std::uint32_t tag_of(std::uint64_t head) noexcept {
        return static_cast<std::uint32_t>(head >> 32);
    }
    static std::uint64_t pack(std::uint32_t tag, std::uint32_t index) noexcept {
        return (static_cast<std::uint64_t>(tag) << 32) | index;
    }
};

class slab_directory {
  public:
    static constexpr std::size_t slots_per_chunk = 1024;
    static constexpr std::size_t max_chunks = 4096;
    static constexpr std::size_t max_slots = slots_per_chunk * max_chunks;

    /// `stride` is the exact distance between slots (a multiple of 8; a
    /// slot is aligned to the largest power of two dividing it, up to the
    /// page). `track_stats == false` keeps chunk footprint out of the
    /// global allocation counters — the arena passes it, since counted_base
    /// already counts its objects one by one and the slabs under them must
    /// not pollute the per-object leak accounting tests and E4 sample.
    explicit slab_directory(std::size_t stride, bool track_stats = true) noexcept
        : stride_(stride),
          chunk_bytes_(stride * slots_per_chunk),
          links_offset_(stride * max_slots),
          homes_offset_(links_offset_ + sizeof(std::uint32_t) * max_slots),
          region_bytes_(homes_offset_ + sizeof(std::uint16_t) * max_chunks),
          reciprocal_(((std::uint64_t{1} << reciprocal_shift) + stride - 1) / stride),
          track_stats_(track_stats) {
        assert(stride % 8 == 0 && stride < max_stride);
    }
    slab_directory(const slab_directory&) = delete;
    slab_directory& operator=(const slab_directory&) = delete;

    ~slab_directory() {
        std::byte* base = base_.load(std::memory_order_relaxed);  // lfrc-lint: order(unpaired-dtor-teardown)
        if (base == nullptr) return;
        const std::size_t chunks = chunks_claimed();
        if (track_stats_) {
            for (std::size_t c = 0; c < chunks; ++c) note_free(chunk_bytes_);
        }
        // A consumer may have left payloads poisoned; the address range
        // goes back to the system clean, so a later mapping there is not
        // born poisoned.
        asan_unpoison(base, chunks * chunk_bytes_);
        ::munmap(base, region_bytes_);
    }

    /// Carve one never-used slot for registry slot `s` (the caller's own):
    /// returns its storage and writes its index. Lock-free; throws
    /// bad_alloc past max_chunks chunks or if the region cannot be reserved.
    std::byte* carve(std::size_t s, std::uint32_t& index) {
        cursor& c = *cursors_[s];
        if (c.next == c.end) claim_chunk(s, c);
        index = c.next++;
        // Owner-only counter: load+store, no RMW.
        c.carved.store(c.carved.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);  // lfrc-lint: order(unpaired-stats-counter)
        return slot_at(index);
    }

    /// Resolve an index carve() handed out earlier: one load + arithmetic.
    std::byte* slot_at(std::uint32_t index) const noexcept {
        return base() + static_cast<std::size_t>(index) * stride_;
    }

    /// The index of a slot this directory carved, by multiplying its
    /// offset with the precomputed reciprocal of the stride (no division).
    std::uint32_t index_of(const void* slot) const noexcept {
        const auto offset = static_cast<std::uint64_t>(static_cast<const std::byte*>(slot) - base());
        return static_cast<std::uint32_t>((offset * reciprocal_) >> reciprocal_shift);
    }

    /// The registry slot that claimed the chunk holding slot `index`.
    std::uint16_t home_of(std::uint32_t index) const noexcept {
        return home_ref(index / slots_per_chunk).load(std::memory_order_relaxed);  // lfrc-lint: order(chunk-home)
    }

    /// Slot `index`'s side link: a u32 outside the slot, for consumers that
    /// chain free slots without writing into them.
    std::atomic_ref<std::uint32_t> link(std::uint32_t index) const noexcept {
        return std::atomic_ref<std::uint32_t>(
            *reinterpret_cast<std::uint32_t*>(base() + links_offset_ + sizeof(std::uint32_t) * index));
    }

    /// True if `p` points into one of this directory's claimed chunks.
    bool contains(const void* p) const noexcept {
        const std::byte* b = base_.load(std::memory_order_acquire);  // lfrc-lint: order(region-base)
        const auto* q = static_cast<const std::byte*>(p);
        return b != nullptr && q >= b && q < b + chunks_claimed() * chunk_bytes_;
    }

    std::size_t stride() const noexcept { return stride_; }

    /// Bytes of claimed chunks (never decreases while alive). Pages of a
    /// claimed chunk are backed as its slots are carved.
    std::size_t footprint_bytes() const noexcept { return chunks_claimed() * chunk_bytes_; }

    std::uint64_t slots_carved() const noexcept {
        std::uint64_t n = 0;
        const std::size_t high = util::thread_registry::instance().high_water();
        for (std::size_t s = 0; s < high; ++s) {
            n += cursors_[s]->carved.load(std::memory_order_relaxed);  // lfrc-lint: order(unpaired-stats-counter)
        }
        return n;
    }

  private:
    // index = offset * reciprocal >> reciprocal_shift, with reciprocal =
    // (2^shift + r) / stride for some r < stride. For offset = q * stride
    // that is q + (q * r >> shift): exact while q * r < 2^shift (q below
    // max_slots = 2^22, stride below 2^19), and the product stays below
    // 2^64 while max_slots << shift does.
    static constexpr unsigned reciprocal_shift = 41;
    static constexpr std::size_t max_stride = std::size_t{1} << 19;
    static_assert(max_slots * max_stride <= (std::uint64_t{1} << reciprocal_shift));
    static_assert(max_slots <= (std::uint64_t{1} << (63 - reciprocal_shift)));

    /// A registry slot's carving position: [next, end) is what is left of
    /// the chunk it claimed last. Owner-only, but for the stats counter.
    struct cursor {
        std::uint32_t next = 0;
        std::uint32_t end = 0;
        std::atomic<std::uint64_t> carved{0};
    };

    std::byte* base() const noexcept {
        return base_.load(std::memory_order_acquire);  // lfrc-lint: order(region-base)
    }

    std::atomic_ref<std::uint16_t> home_ref(std::size_t chunk) const noexcept {
        return std::atomic_ref<std::uint16_t>(
            *reinterpret_cast<std::uint16_t*>(base() + homes_offset_ + sizeof(std::uint16_t) * chunk));
    }

    std::size_t chunks_claimed() const noexcept {
        const std::uint64_t n = next_chunk_.load(std::memory_order_relaxed);  // lfrc-lint: order(unpaired-chunk-cursor)
        return n < max_chunks ? static_cast<std::size_t>(n) : max_chunks;
    }

    /// The region, reserved on first use. The mapping is published with a
    /// release CAS, so the kernel's zero pages are ordered before every
    /// access through the base another thread reads.
    std::byte* reserve() {
        std::byte* base = base_.load(std::memory_order_acquire);  // lfrc-lint: order(region-base)
        if (base != nullptr) return base;
        void* m = ::mmap(nullptr, region_bytes_, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
        if (m == MAP_FAILED) throw std::bad_alloc{};
        std::byte* expected = nullptr;
        if (base_.compare_exchange_strong(expected, static_cast<std::byte*>(m),  // lfrc-lint: order(region-base)
                                          std::memory_order_acq_rel)) {
            return static_cast<std::byte*>(m);
        }
        ::munmap(m, region_bytes_);  // lost the reserve race
        return expected;
    }

    void claim_chunk(std::size_t s, cursor& c) {
        reserve();
        const std::uint64_t chunk = next_chunk_.fetch_add(1, std::memory_order_relaxed);  // lfrc-lint: order(unpaired-chunk-cursor)
        if (chunk >= max_chunks) throw std::bad_alloc{};
        // Written before any slot of the chunk is carved: whoever frees
        // one holds it, so is ordered after this store by the handoff.
        home_ref(chunk).store(static_cast<std::uint16_t>(s), std::memory_order_relaxed);  // lfrc-lint: order(chunk-home)
        if (track_stats_) note_alloc(chunk_bytes_);
        c.next = static_cast<std::uint32_t>(chunk * slots_per_chunk);
        c.end = c.next + static_cast<std::uint32_t>(slots_per_chunk);
    }

    const std::size_t stride_;
    const std::size_t chunk_bytes_;
    const std::size_t links_offset_;
    const std::size_t homes_offset_;
    const std::size_t region_bytes_;
    const std::uint64_t reciprocal_;
    const bool track_stats_;
    std::atomic<std::byte*> base_{nullptr};
    std::atomic<std::uint64_t> next_chunk_{0};
    util::padded<cursor> cursors_[util::thread_registry::max_threads];
};

}  // namespace lfrc::alloc
