// Shared slab chunk directory — the storage engine under every pool in
// this repo (alloc::block_pool, the epoch retire-node pool, the frozen
// DCAS baseline pools in bench_e10, and lfrc::alloc::arena).
//
// A slab_directory owns up to max_chunks chunks of slots_per_chunk
// fixed-size slots each, addressed by a 32-bit slot index through an array
// of atomic chunk pointers. Chunks are carved on demand, installed with a
// single CAS, and *never unmapped* while the directory lives — the
// type-stable property the Valois-style freelist regime (paper §1) and
// every tagged-freelist consumer here depend on: a stale thread may still
// dereference a recycled slot, so the storage under any index handed out
// once must stay readable forever.
//
// Freelist policy is the CONSUMER's job: this class only carves and
// resolves indices. Consumers string slots together with the 32-bit-tag /
// 32-bit-index packed head word (tagged_head below) so a single 64-bit CAS
// both swings the list and advances the ABA tag.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>

#include "alloc/stats.hpp"

namespace lfrc::alloc {

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
    static constexpr std::size_t slot_align = 16;

    /// `track_stats == false` keeps chunk footprint out of the global
    /// allocation counters — infrastructure pools (DCAS descriptors, epoch
    /// retire nodes, the arena's own slabs) must not pollute the per-object
    /// leak accounting tests and E4 sample.
    explicit slab_directory(std::size_t slot_bytes, bool track_stats = true) noexcept
        : slot_bytes_((slot_bytes + slot_align - 1) / slot_align * slot_align),
          chunk_bytes_(slot_bytes_ * slots_per_chunk),
          track_stats_(track_stats) {}
    slab_directory(const slab_directory&) = delete;
    slab_directory& operator=(const slab_directory&) = delete;

    ~slab_directory() {
        for (std::size_t c = 0; c < max_chunks; ++c) {
            std::byte* chunk = chunks_[c].load(std::memory_order_relaxed);  // lfrc-lint: order(unpaired-dtor-teardown)
            if (chunk == nullptr) continue;
            if (track_stats_) note_free(chunk_bytes_);
            release_chunk(chunk);
        }
    }

    /// Carve one never-used slot; returns its storage and writes its index.
    /// Lock-free; throws bad_alloc past max_chunks * slots_per_chunk.
    std::byte* carve(std::uint32_t& index) {
        const std::uint64_t slot = fresh_.fetch_add(1, std::memory_order_relaxed);  // lfrc-lint: order(unpaired-fresh-cursor)
        const std::size_t chunk_index = slot / slots_per_chunk;
        if (chunk_index >= max_chunks) throw std::bad_alloc{};
        std::byte* chunk = ensure_chunk(chunk_index);
        index = static_cast<std::uint32_t>(slot);
        return chunk + (slot % slots_per_chunk) * slot_bytes_;
    }

    /// Resolve an index carve() handed out earlier. The chunk pointer is
    /// immutable once installed, so this is one acquire load + arithmetic.
    std::byte* slot_at(std::uint32_t index) const noexcept {
        std::byte* chunk = chunks_[index / slots_per_chunk].load(std::memory_order_acquire);  // lfrc-lint: order(chunk-install)
        return chunk + (index % slots_per_chunk) * slot_bytes_;
    }

    std::size_t slot_bytes() const noexcept { return slot_bytes_; }

    /// Bytes held from the system (never decreases while alive).
    std::size_t footprint_bytes() const noexcept {
        std::size_t chunks = 0;
        for (std::size_t c = 0; c < max_chunks; ++c) {
            if (chunks_[c].load(std::memory_order_relaxed) != nullptr) ++chunks;  // lfrc-lint: order(unpaired-footprint-scan)
        }
        return chunks * chunk_bytes_;
    }

    std::uint64_t slots_carved() const noexcept {
        return fresh_.load(std::memory_order_relaxed);  // lfrc-lint: order(unpaired-fresh-cursor)
    }

  private:
    std::byte* acquire_chunk() {
        return static_cast<std::byte*>(
            ::operator new[](chunk_bytes_, std::align_val_t{slot_align}));
    }

    void release_chunk(std::byte* chunk) noexcept {
        ::operator delete[](chunk, std::align_val_t{slot_align});
    }

    std::byte* ensure_chunk(std::size_t chunk_index) {
        std::byte* chunk = chunks_[chunk_index].load(std::memory_order_acquire);  // lfrc-lint: order(chunk-install)
        if (chunk != nullptr) return chunk;
        std::byte* fresh_chunk = acquire_chunk();
        std::byte* expected = nullptr;
        if (chunks_[chunk_index].compare_exchange_strong(expected, fresh_chunk,  // lfrc-lint: order(chunk-install)
                                                         std::memory_order_acq_rel)) {
            if (track_stats_) note_alloc(chunk_bytes_);
            return fresh_chunk;
        }
        release_chunk(fresh_chunk);  // lost the install race
        return expected;
    }

    const std::size_t slot_bytes_;
    const std::size_t chunk_bytes_;
    const bool track_stats_;
    std::atomic<std::uint64_t> fresh_{0};
    std::atomic<std::byte*> chunks_[max_chunks] = {};
};

}  // namespace lfrc::alloc
