// Lock-free, type-stable block pool.
//
// This is the allocation regime the paper contrasts LFRC against: memory is
// recycled through a LIFO freelist but *never returned to the system* while
// the pool lives (Valois [19] and other freelist-based schemes require
// exactly this "type-stable" property). Consumers in this repo:
//
//  * containers::valois_stack — the comparator whose footprint cannot
//    shrink (experiment E4);
//  * the frozen allocate+retire DCAS baseline in bench_e10;
//  * tests/test_aba_demo.cpp — the LIFO reuse makes ABA reproduce reliably,
//    demonstrating why CAS-only reference counting on reusable memory is
//    unsound (paper §1) while LFRC on fresh heap memory is not.
//
// Storage comes from the shared slab region (alloc/slab.hpp, the same
// engine under lfrc::alloc::arena); this class adds one single-list
// freelist over it, linked through an 8-byte header in each slot, and
// counts its footprint in whole claimed chunks. Freelist ABA is prevented
// with the 32-bit tag packed next to the 32-bit slot index in a single
// 64-bit head word (tagged_head), so no double-width CAS is needed.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>

#include "alloc/slab.hpp"
#include "util/thread_registry.hpp"

namespace lfrc::alloc {

template <std::size_t BlockSize>
class block_pool {
  public:
    static constexpr std::size_t blocks_per_chunk = slab_directory::slots_per_chunk;
    static constexpr std::size_t max_chunks = slab_directory::max_chunks;

    block_pool() noexcept : dir_(slot_bytes) {}
    block_pool(const block_pool&) = delete;
    block_pool& operator=(const block_pool&) = delete;

    /// Returns a BlockSize-byte region. Lock-free; recycled blocks are
    /// returned most-recently-freed first.
    void* allocate() {
        bool fresh_unused;
        return allocate_ex(fresh_unused);
    }

    /// Like allocate(), reporting whether the block is freshly carved
    /// (never used before) or recycled. Reference-counting schemes over
    /// type-stable memory need the distinction: recycled blocks may still
    /// receive stale accesses from their previous life and must not be
    /// blindly re-initialized (see containers::valois_stack).
    void* allocate_ex(bool& fresh) {
        // Fast path: pop the freelist. The pre-read `next` is only valid if
        // the head did not change underneath us — the tag turns "same index,
        // different list" into a CAS failure.
        std::uint64_t head = head_.load(std::memory_order_acquire);  // lfrc-lint: order(pool-head)
        while (tagged_head::index_of(head) != tagged_head::null_index) {
            std::byte* slot = dir_.slot_at(tagged_head::index_of(head));
            std::uint32_t next;
            std::memcpy(&next, slot + sizeof(std::uint32_t), sizeof(next));
            const std::uint64_t desired =
                tagged_head::pack(tagged_head::tag_of(head) + 1, next);
            if (head_.compare_exchange_weak(head, desired, std::memory_order_acq_rel)) {  // lfrc-lint: order(pool-head)
                fresh = false;
                return slot + header_bytes;
            }
        }
        // Slow path: carve a fresh block and stamp its index.
        fresh = true;
        std::uint32_t index;
        std::byte* slot = dir_.carve(util::thread_registry::instance().slot(), index);
        std::memcpy(slot, &index, sizeof(index));
        return slot + header_bytes;
    }

    void deallocate(void* p) noexcept {
        auto* slot = static_cast<std::byte*>(p) - header_bytes;
        std::uint32_t index;
        std::memcpy(&index, slot, sizeof(index));
        std::uint64_t head = head_.load(std::memory_order_acquire);  // lfrc-lint: order(pool-head)
        for (;;) {
            const std::uint32_t old_top = tagged_head::index_of(head);
            std::memcpy(slot + sizeof(std::uint32_t), &old_top, sizeof(old_top));
            const std::uint64_t desired =
                tagged_head::pack(tagged_head::tag_of(head) + 1, index);
            if (head_.compare_exchange_weak(head, desired, std::memory_order_acq_rel)) return;  // lfrc-lint: order(pool-head)
        }
    }

    /// Bytes this pool holds from the system (never decreases while alive).
    std::size_t footprint_bytes() const noexcept { return dir_.footprint_bytes(); }

    std::uint64_t blocks_carved() const noexcept { return dir_.slots_carved(); }

  private:
    static constexpr std::size_t header_bytes = 8;  // 4B index + 4B freelist next
    static constexpr std::size_t slot_align = 16;
    static constexpr std::size_t slot_bytes =
        (header_bytes + BlockSize + slot_align - 1) / slot_align * slot_align;

    slab_directory dir_;
    std::atomic<std::uint64_t> head_{tagged_head::pack(0, tagged_head::null_index)};
};

/// Typed facade: allocate() gives raw storage for a T (caller placement-news
/// it; the whole point of type-stable pools is that reused storage may still
/// be read as a T by stale threads, so the pool never runs destructors).
template <typename T>
class typed_pool {
  public:
    void* allocate_raw() { return pool_.allocate(); }
    void* allocate_raw_ex(bool& fresh) { return pool_.allocate_ex(fresh); }
    void deallocate_raw(void* p) noexcept { pool_.deallocate(p); }

    template <typename... Args>
    T* create(Args&&... args) {
        return ::new (pool_.allocate()) T(std::forward<Args>(args)...);
    }

    /// Returns storage to the freelist WITHOUT running ~T (type-stability).
    void recycle(T* p) noexcept { pool_.deallocate(p); }

    std::size_t footprint_bytes() const noexcept { return pool_.footprint_bytes(); }
    std::uint64_t blocks_carved() const noexcept { return pool_.blocks_carved(); }

  private:
    block_pool<sizeof(T)> pool_;
};

}  // namespace lfrc::alloc
