// lfrc::alloc::arena — type-stable, slot-sharded size-class slab arenas.
//
// The physical allocator behind alloc::counted_base, i.e. behind every
// smr::owner make_owner (manual.hpp, deferred.hpp, counted.hpp),
// lfrc::domain::make, and every reclaimer deleter — one seam, every layer.
// E9/E11 showed the global allocator becoming the contended resource at
// server scale (~190k retires / 0.4 s at 8 threads); pairing reclamation
// with a pooled, never-unmapped allocator (Brown; Arbel-Raviv & Brown,
// "Reuse, don't Recycle") turns the free half of every retire path into an
// O(1) pointer push and the allocate half into a thread-local array pop.
//
// Design (DESIGN.md §15):
//
//   size classes   13 payload classes, 48..2048 bytes; each class owns a
//                  slab_directory (alloc/slab.hpp — one never-unmapped
//                  region of 1024-block chunks: type-stable). A block is
//                  exactly its class size, with no header: index <-> address
//                  is arithmetic on the region, `home` is recorded once per
//                  chunk, and free-list links live in the region's side
//                  array. Payloads above 2048 fall through to the system
//                  heap, routed consistently by size on both ends.
//   home           the registry slot whose chunk a block was carved from;
//                  it never changes — every free of this block routes back
//                  to its home shard, so blocks do not migrate and each
//                  shard's freelist stays hot in its owner's cache.
//   magazine       per (class × registry slot): a plain array of slot
//                  indices only its owner touches. Same-slot frees push
//                  here; allocation pops here first. No atomics at all on
//                  the hit path.
//   remote list    per (class × registry slot): a Treiber stack of blocks
//                  freed by OTHER slots, head = the tagged_head 64-bit
//                  word (32-bit ABA tag | 32-bit index — block_pool's
//                  idiom, shared via slab.hpp). The owner pops one block at
//                  a time and REUSES ITS PRE-READ `next`, so the tag is
//                  load-bearing: a thief can steal the whole chain, recycle
//                  a block, and push it back with the same head index; only
//                  the advanced tag turns that recurrence into a CAS
//                  failure. The remote-free vs local-pop race is
//                  model-checked (tests/sim/sim_arena_test.cpp) against the
//                  seeded strip-the-tag mutant below. `next` is the block's
//                  side link, never a payload byte, so the pre-read never
//                  races with a new owner's writes to a block a thief has
//                  already handed on.
//   steal          a slot whose magazine and remote list are both empty
//                  grabs a peer's whole remote chain with one CAS (chain
//                  grabs never reuse pre-read data, so they are ABA-safe by
//                  construction), keeps the first block, and stashes the
//                  rest in its magazine.
//   ASan interop   recycling defeats the heap sanitizer's use-after-free
//                  detection unless we teach it: payloads are manually
//                  poisoned on free and unpoisoned on allocate, so a stale
//                  read of a recycled *node* still dies under
//                  LFRC_SANITIZE=address (scripts/ci.sh asan cell probes
//                  this with tests/arena_uaf_probe). The whole block is
//                  payload; the links the freelist writes are off-block.
//                  (valois_stack's typed_pool is NOT poisoned: stale reads
//                  of recycled comparator nodes are that design's point.)
//   sim interop    under -DLFRC_SIM, counted_base keeps routing through the
//                  shadow heap (sim::managed_alloc/managed_free), so every
//                  schedule retains quarantine-based UAF/double-free/leak
//                  checking — recycling never masks a model-level UAF. The
//                  arena's remote heads are instrumented atomics, so the
//                  arena's own protocol is schedule-explorable.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <optional>

#include "alloc/slab.hpp"
#include "sim/instrumented.hpp"
#include "util/thread_registry.hpp"

namespace lfrc::alloc {

class arena {
  public:
    static constexpr std::size_t num_classes = 13;
    /// Block bytes per class, which is also the stride between blocks. Every
    /// class is a multiple of 16, so its blocks are 16-aligned.
    static constexpr std::size_t class_sizes[num_classes] = {
        48, 64, 80, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048};
    static constexpr std::size_t max_payload = class_sizes[num_classes - 1];
    static constexpr std::size_t magazine_cap = 64;

    arena() {
        for (std::size_t k = 0; k < num_classes; ++k) classes_[k].emplace(class_sizes[k]);
    }
    arena(const arena&) = delete;
    arena& operator=(const arena&) = delete;

    /// The process-wide arena behind counted_base. Leaked (like the epoch
    /// domain): node frees can run during static destruction.
    static arena& instance() {
        static auto* a = new arena;
        return *a;
    }

    void* allocate(std::size_t sz) {
        const int k = klass_of(sz);
        if (k < 0) {
            fallback_allocs_.fetch_add(1, std::memory_order_relaxed);  // lfrc-lint: order(unpaired-stats-counter)
            return ::operator new(sz);
        }
        class_state& cs = *classes_[static_cast<std::size_t>(k)];
        const std::size_t s = util::thread_registry::instance().slot();
        shard& sh = cs.shards[s];

        // 1) magazine: owner-only array pop, no atomics on the hit path.
        const std::uint32_t n = sh.mag_count.load(std::memory_order_relaxed);  // lfrc-lint: order(unpaired-owner-magazine)
        if (n != 0) {
            const std::uint32_t idx = sh.magazine[n - 1];
            sh.mag_count.store(n - 1, std::memory_order_relaxed);  // lfrc-lint: order(unpaired-owner-magazine)
            tick(sh.magazine_hits);
            return payload_of(cs, idx);
        }

        // 2) own remote list: single-block tagged pop. `next` is read
        // BEFORE the CAS — the advanced tag is what makes that sound.
        // Orders come from pop_load_order/pop_cas_order (acquire/acq_rel;
        // both ends of the `remote-head` pairing are annotated there) so
        // the R6 mutation can sever the edge for the TSan twin.
        std::uint64_t head = sh.remote_head.load(pop_load_order());
        while (tagged_head::index_of(head) != tagged_head::null_index) {
            const std::uint32_t idx = tagged_head::index_of(head);
            const std::uint32_t next = load_next(cs, idx);
            const std::uint64_t desired =
                tagged_head::pack(next_tag(tagged_head::tag_of(head)), next);
            if (sh.remote_head.compare_exchange_weak(head, desired,
                                                     pop_cas_order())) {
                tick(sh.remote_pops);
                return payload_of(cs, idx);
            }
        }

        // 3) steal a peer's whole remote chain (chain grabs use no pre-read
        // data, so they are ABA-safe; the tag still advances so the owner's
        // in-flight single pop fails cleanly).
        const std::size_t high = util::thread_registry::instance().high_water();
        for (std::size_t t = 0; t < high; ++t) {
            if (t == s) continue;
            shard& peer = cs.shards[t];
            std::uint64_t ph = peer.remote_head.load(std::memory_order_acquire);  // lfrc-lint: order(remote-head)
            while (tagged_head::index_of(ph) != tagged_head::null_index) {
                const std::uint64_t empty = tagged_head::pack(
                    next_tag(tagged_head::tag_of(ph)), tagged_head::null_index);
                if (peer.remote_head.compare_exchange_weak(ph, empty,  // lfrc-lint: order(remote-head)
                                                           std::memory_order_acq_rel)) {
                    tick(sh.chain_steals);
                    return adopt_chain(cs, sh, tagged_head::index_of(ph));
                }
            }
        }

        // 4) carve fresh from this slot's own chunk, whose home is s.
        std::uint32_t idx;
        return cs.dir.carve(s, idx);
    }

    void deallocate(void* p, std::size_t sz) noexcept {
        const int k = klass_of(sz);
        if (k < 0) {
            ::operator delete(p);
            return;
        }
        class_state& cs = *classes_[static_cast<std::size_t>(k)];
        const std::uint32_t idx = cs.dir.index_of(p);
        const std::size_t home = cs.dir.home_of(idx);
        // Freed payload becomes poison until its next allocation: a stale
        // read of a recycled node dies under ASan instead of silently
        // reading the next tenant's bytes.
        asan_poison(p, cs.dir.stride());
        const std::size_t s = util::thread_registry::instance().slot();
        shard& sh = cs.shards[s];
        if (home == s) {
            const std::uint32_t n = sh.mag_count.load(std::memory_order_relaxed);  // lfrc-lint: order(unpaired-owner-magazine)
            if (n < magazine_cap) {
                sh.magazine[n] = idx;
                sh.mag_count.store(n + 1, std::memory_order_relaxed);  // lfrc-lint: order(unpaired-owner-magazine)
                tick(sh.local_frees);
                return;
            }
        }
        // Cross-slot (or magazine-overflow) free: tagged push onto the
        // block's HOME shard, so storage stays with its carving slot.
        tick(sh.remote_frees);
        push_remote(cs, cs.shards[home], idx);
    }

    // ---- stats -----------------------------------------------------------

    struct stats {
        std::size_t footprint_bytes = 0;  ///< slab bytes held from the system
        std::uint64_t carved = 0;         ///< fresh blocks ever carved
        std::uint64_t magazine_hits = 0;  ///< allocations served by magazines
        std::uint64_t remote_pops = 0;    ///< single-block remote-list pops
        std::uint64_t chain_steals = 0;   ///< whole-chain grabs from peers
        std::uint64_t local_frees = 0;    ///< frees into the owner magazine
        std::uint64_t remote_frees = 0;   ///< cross-slot tagged pushes
        std::uint64_t fallback_allocs = 0;  ///< >2048B system-heap routes
    };

    stats snapshot() const noexcept {
        stats out;
        const std::size_t high = util::thread_registry::instance().high_water();
        for (std::size_t k = 0; k < num_classes; ++k) {
            const class_state& cs = *classes_[k];
            out.footprint_bytes += cs.dir.footprint_bytes();
            out.carved += cs.dir.slots_carved();
            for (std::size_t s = 0; s < high; ++s) {
                const shard& sh = cs.shards[s];
                out.magazine_hits += sh.magazine_hits.load(std::memory_order_relaxed);  // lfrc-lint: order(unpaired-stats-counter)
                out.remote_pops += sh.remote_pops.load(std::memory_order_relaxed);  // lfrc-lint: order(unpaired-stats-counter)
                out.chain_steals += sh.chain_steals.load(std::memory_order_relaxed);  // lfrc-lint: order(unpaired-stats-counter)
                out.local_frees += sh.local_frees.load(std::memory_order_relaxed);  // lfrc-lint: order(unpaired-stats-counter)
                out.remote_frees += sh.remote_frees.load(std::memory_order_relaxed);  // lfrc-lint: order(unpaired-stats-counter)
            }
        }
        out.fallback_allocs = fallback_allocs_.load(std::memory_order_relaxed);  // lfrc-lint: order(unpaired-stats-counter)
        return out;
    }

#if defined(LFRC_ENABLE_MUTATIONS)
    /// Seeded freelist-ABA bug for mutation testing (tests/sim/
    /// sim_arena_test.cpp): when set, head CASes stop advancing the tag, so
    /// a head word can recur exactly — the owner's in-flight single-block
    /// pop then succeeds against a reborn head and installs its STALE
    /// pre-read `next`, handing one block to two owners. This is the
    /// classic recycled-freelist bug the tag exists to exclude.
    static std::atomic<bool>& mutate_strip_arena_tag() noexcept {
        static std::atomic<bool> flag{false};
        return flag;
    }

    /// Seeded memory-order bug for R6's dynamic twin (tests/
    /// order_race_probe.cpp): when set, the owner's single-block remote pop
    /// runs BOTH its head pre-read and its claiming CAS relaxed, severing
    /// the `remote-head` release/acquire pairing (docs/fence_pairings.md).
    /// A popped block then reaches the allocator's caller with no
    /// happens-before edge from the remote freer's last payload writes —
    /// a data race TSan reports on the first cross-thread recycle. Either
    /// order alone restores the edge (the CAS's success order or the
    /// pre-read's acquire), which is exactly why R6 makes every site of
    /// the pairing name it: weakening one end is invisible to eyeballs.
    static std::atomic<bool>& mutate_weaken_pop_acquire() noexcept {
        static std::atomic<bool> flag{false};
        return flag;
    }
#endif

  private:
    friend struct arena_testing;

    /// Per (class × registry slot) free storage. The magazine half is
    /// owner-only (mag_count is atomic solely so stats reads are defined);
    /// the remote head is the only cross-thread word.
    struct alignas(64) shard {
        sim::instrumented_atomic<std::uint64_t> remote_head{
            tagged_head::pack(0, tagged_head::null_index)};
        std::uint32_t magazine[magazine_cap] = {};
        std::atomic<std::uint32_t> mag_count{0};
        std::atomic<std::uint64_t> magazine_hits{0};
        std::atomic<std::uint64_t> remote_pops{0};
        std::atomic<std::uint64_t> chain_steals{0};
        std::atomic<std::uint64_t> local_frees{0};
        std::atomic<std::uint64_t> remote_frees{0};
    };

    struct class_state {
        explicit class_state(std::size_t payload) : dir(payload, /*track_stats=*/false) {}
        slab_directory dir;
        shard shards[util::thread_registry::max_threads];
    };

    /// A block's freelist link is its side link in the class region, never
    /// a payload byte. It is read and written while the block is visible to
    /// other threads: a popping owner pre-reads the head's `next` BEFORE its
    /// CAS, so a thief that already took the block may be rewriting the
    /// link concurrently (the stale read is harmless — the advanced tag
    /// fails the reader's CAS), and may already have handed the block to a
    /// new owner, whose writes stay in the payload. Relaxed atomic_ref
    /// makes the link well-defined to race on (plain loads/stores on x86).
    static std::uint32_t load_next(const class_state& cs, std::uint32_t idx) noexcept {
        return cs.dir.link(idx).load(std::memory_order_relaxed);  // lfrc-lint: order(next-link)
    }
    static void store_next(const class_state& cs, std::uint32_t idx, std::uint32_t v) noexcept {
        cs.dir.link(idx).store(v, std::memory_order_relaxed);  // lfrc-lint: order(next-link)
    }

    /// Class ordinal for a payload size, or -1 for the system-heap route.
    static int klass_of(std::size_t sz) noexcept {
        if (sz > max_payload) return -1;
        for (std::size_t k = 0; k < num_classes; ++k) {
            if (sz <= class_sizes[k]) return static_cast<int>(k);
        }
        return -1;  // unreachable
    }

    /// Tag successor for every head CAS; the mutation strips the advance.
    static std::uint32_t next_tag(std::uint32_t tag) noexcept {
#if defined(LFRC_ENABLE_MUTATIONS)
        if (mutate_strip_arena_tag().load(std::memory_order_relaxed)) return tag;  // lfrc-lint: order(unpaired-mutation-flag)
#endif
        return tag + 1;  // 32-bit wraparound is benign: equality is all that matters
    }

    /// Memory orders for the owner's single-block remote pop (allocate
    /// step 2). Funneled through one place so the R6 mutation can weaken
    /// both ends at once; these ARE the pop side of the `remote-head`
    /// pairing — see docs/fence_pairings.md.
    static std::memory_order pop_load_order() noexcept {
#if defined(LFRC_ENABLE_MUTATIONS)
        if (mutate_weaken_pop_acquire().load(std::memory_order_relaxed)) {  // lfrc-lint: order(unpaired-mutation-flag)
            return std::memory_order_relaxed;  // lfrc-lint: order(remote-head)
        }
#endif
        return std::memory_order_acquire;  // lfrc-lint: order(remote-head)
    }
    static std::memory_order pop_cas_order() noexcept {
#if defined(LFRC_ENABLE_MUTATIONS)
        if (mutate_weaken_pop_acquire().load(std::memory_order_relaxed)) {  // lfrc-lint: order(unpaired-mutation-flag)
            return std::memory_order_relaxed;  // lfrc-lint: order(remote-head)
        }
#endif
        return std::memory_order_acq_rel;  // lfrc-lint: order(remote-head)
    }

    static void tick(std::atomic<std::uint64_t>& c) noexcept {
        // Owner-only counter: load+store, no RMW on the hot path.
        c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);  // lfrc-lint: order(unpaired-stats-counter)
    }

    void* payload_of(class_state& cs, std::uint32_t idx) noexcept {
        void* p = cs.dir.slot_at(idx);
        asan_unpoison(p, cs.dir.stride());
        return p;
    }

    /// After a successful chain grab: keep the first block, stash the rest
    /// in the caller's magazine, overflow back onto the caller's own remote
    /// list. The chain is exclusively ours post-CAS, so the link walk is
    /// single-owner code.
    void* adopt_chain(class_state& cs, shard& sh, std::uint32_t first) noexcept {
        std::uint32_t cur = load_next(cs, first);
        std::uint32_t n = sh.mag_count.load(std::memory_order_relaxed);  // lfrc-lint: order(unpaired-owner-magazine)
        while (cur != tagged_head::null_index && n < magazine_cap) {
            const std::uint32_t nxt = load_next(cs, cur);
            sh.magazine[n++] = cur;
            cur = nxt;
        }
        sh.mag_count.store(n, std::memory_order_relaxed);  // lfrc-lint: order(unpaired-owner-magazine)
        while (cur != tagged_head::null_index) {
            const std::uint32_t nxt = load_next(cs, cur);
            push_remote(cs, sh, cur);
            cur = nxt;
        }
        return payload_of(cs, first);
    }

    void push_remote(class_state& cs, shard& dst, std::uint32_t index) noexcept {
        std::uint64_t head = dst.remote_head.load(std::memory_order_acquire);  // lfrc-lint: order(remote-head)
        for (;;) {
            store_next(cs, index, tagged_head::index_of(head));
            const std::uint64_t desired =
                tagged_head::pack(next_tag(tagged_head::tag_of(head)), index);
            if (dst.remote_head.compare_exchange_weak(head, desired,  // lfrc-lint: order(remote-head)
                                                      std::memory_order_acq_rel)) {
                return;
            }
        }
    }

    std::optional<class_state> classes_[num_classes];
    std::atomic<std::uint64_t> fallback_allocs_{0};
};

/// White-box seams for the unit suite and the sim model check. Tests-only;
/// production code must go through allocate/deallocate.
struct arena_testing {
    static int klass_of(std::size_t sz) noexcept { return arena::klass_of(sz); }

    static std::uint64_t remote_head(const arena& a, std::size_t k, std::size_t s) noexcept {
        return a.classes_[k]->shards[s].remote_head.load(std::memory_order_acquire);  // lfrc-lint: order(remote-head)
    }
    /// Force a shard's remote tag (wraparound tests).
    static void set_remote_tag(arena& a, std::size_t k, std::size_t s,
                               std::uint32_t tag) noexcept {
        auto& head = a.classes_[k]->shards[s].remote_head;
        const std::uint64_t cur = head.load(std::memory_order_acquire);  // lfrc-lint: order(remote-head)
        head.store(tagged_head::pack(tag, tagged_head::index_of(cur)),  // lfrc-lint: order(remote-head)
                   std::memory_order_release);
    }
    static std::uint32_t magazine_size(const arena& a, std::size_t k,
                                       std::size_t s) noexcept {
        return a.classes_[k]->shards[s].mag_count.load(std::memory_order_relaxed);  // lfrc-lint: order(unpaired-owner-magazine)
    }
    /// The class whose region holds `block`, or -1 if none does.
    static int class_of_block(const arena& a, const void* block) noexcept {
        for (std::size_t k = 0; k < arena::num_classes; ++k) {
            if (a.classes_[k]->dir.contains(block)) return static_cast<int>(k);
        }
        return -1;
    }
    /// The home slot its chunk record gives a block of class k.
    static std::size_t home_of(const arena& a, std::size_t k, const void* block) noexcept {
        const slab_directory& dir = a.classes_[k]->dir;
        return dir.home_of(dir.index_of(block));
    }

#if defined(LFRC_SIM)
    /// Carve a fresh block from slot s's chunk (home = s) and push it onto
    /// that shard's remote list via UNSCHEDULED accesses (peek/poke) — setup
    /// that costs zero scheduler steps, so schedule exploration spends its
    /// whole preemption budget on the remote-pop race under test rather
    /// than on reaching the preconditions.
    static void seed_remote_block(arena& a, std::size_t k, std::size_t s) {
        auto& cs = *a.classes_[k];
        auto& sh = cs.shards[s];
        std::uint32_t idx;
        cs.dir.carve(s, idx);
        const std::uint64_t head = sh.remote_head.peek();
        arena::store_next(cs, idx, tagged_head::index_of(head));
        sh.remote_head.poke(tagged_head::pack(tagged_head::tag_of(head), idx));
    }
#endif
};

}  // namespace lfrc::alloc
