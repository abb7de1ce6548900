// Valois-style CAS-only reference counting over a type-stable node pool —
// the comparator the paper contrasts LFRC against (§1, §5):
//
//   "Valois [19] used this approach, and as a result was forced to maintain
//    unused nodes explicitly in a freelist, thereby preventing the space
//    consumption of a list from shrinking over time."
//
// With only single-word CAS, incrementing the count of a node you do not yet
// hold may land on a node that was already recycled. Valois's answer —
// with the Michael & Scott 1995 correction — is to *tolerate* such stale
// accesses rather than prevent them:
//
//  * nodes live in type-stable pool memory, so a stale access always hits a
//    valid node object (the pool keeps its freelist links outside the
//    payload);
//  * the count word carries a CLAIM bit; a node is handed to the freelist
//    exactly once, by whoever CASes (count==0, claim==0) -> (0, claim=1);
//  * reusing a node requires CASing (0, claim=1) -> (1, claim=0), which
//    cannot succeed while a stale increment is outstanding — the allocator
//    puts such a node back and retries until the stale holder backs out.
//
// The permanent price is the one the paper names: pool chunks are never
// returned to the system, so the footprint is monotone. Experiment E4
// measures this against LFRC's shrinking footprint.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <utility>

#include "alloc/block_pool.hpp"
#include "sim/instrumented.hpp"

namespace lfrc::containers {

template <typename V>
class valois_stack {
  public:
    struct node {
        // bit 0: claim (node is on / headed to the freelist); bits 1..:
        // reference count. Never reset across reuses — stale increments
        // from a node's previous life must balance out on the same word.
        sim::instrumented_atomic<std::uint64_t> rc{0};
        sim::instrumented_atomic<node*> next{nullptr};
        V value{};
    };

    static constexpr std::uint64_t claim_bit = 1;
    static constexpr std::uint64_t one_ref = 2;

    valois_stack() = default;
    valois_stack(const valois_stack&) = delete;
    valois_stack& operator=(const valois_stack&) = delete;

    /// Quiescent destructor; pool chunks die with the pool member.
    ~valois_stack() {
        node* h = head_.exchange(nullptr, std::memory_order_acquire);
        while (h != nullptr) {
            node* next = h->next.load(std::memory_order_relaxed);
            pool_.deallocate_raw(h);
            h = next;
        }
    }

    void push(V v) {
        node* nd = acquire_node();
        nd->value = std::move(v);
        node* h = head_.load(std::memory_order_relaxed);
        do {
            nd->next.store(h, std::memory_order_relaxed);
        } while (!head_.compare_exchange_weak(h, nd, std::memory_order_acq_rel));
    }

    std::optional<V> pop() {
        for (;;) {
            node* h = head_.load(std::memory_order_acquire);
            if (h == nullptr) return std::nullopt;
            // Optimistic CAS-only increment ("SafeRead"): may be stale.
            h->rc.fetch_add(one_ref, std::memory_order_acq_rel);
            if (head_.load(std::memory_order_acquire) != h) {
                release(h);  // stale: back out
                continue;
            }
            // Our count pins h (claim cannot be taken while count > 0), so
            // its `next` is stable until a recycle, which cannot happen.
            node* next = h->next.load(std::memory_order_acquire);
            // CAS a copy: a failed CAS writes the current head into its
            // expected argument, and the count to drop is still h's.
            node* expected = h;
            if (head_.compare_exchange_strong(expected, next, std::memory_order_acq_rel)) {
                V v = h->value;
                release(h);  // our optimistic count
                release(h);  // the stack's count
                return v;
            }
#if defined(LFRC_ENABLE_MUTATIONS)
            if (mutate_release_cas_witness().load(std::memory_order_relaxed)) h = expected;
#endif
            release(h);
        }
    }

    bool empty() const { return head_.load(std::memory_order_acquire) == nullptr; }

    /// Bytes held from the system; never decreases while the stack lives
    /// (the property E4 demonstrates).
    std::size_t footprint_bytes() const noexcept { return pool_.footprint_bytes(); }

#if defined(LFRC_ENABLE_MUTATIONS)
    /// Seeded pop bug for mutation testing (tests/sim/sim_valois_test.cpp):
    /// when set, a pop whose head CAS failed releases the CAS's witness —
    /// the current head, or nullptr — instead of the node it pinned. The
    /// pinned node keeps a count forever and the new head loses the
    /// stack's count, so it reaches the freelist while still linked.
    static std::atomic<bool>& mutate_release_cas_witness() noexcept {
        static std::atomic<bool> flag{false};
        return flag;
    }
#endif

  private:
    node* acquire_node() {
        for (;;) {
            bool fresh = false;
            void* raw = pool_.allocate_raw_ex(fresh);
            if (fresh) {
                auto* nd = ::new (raw) node;
                nd->rc.store(one_ref, std::memory_order_relaxed);  // stack's ref
                return nd;
            }
            auto* nd = static_cast<node*>(raw);
            // Reuse handshake: (count 0, claimed) -> (count 1, unclaimed).
            std::uint64_t expected = claim_bit;
            if (nd->rc.compare_exchange_strong(expected, one_ref,
                                               std::memory_order_acq_rel)) {
                nd->next.store(nullptr, std::memory_order_relaxed);
                return nd;
            }
            // A stale reader still holds a transient count on this node.
            // Put it back; the LIFO freelist hands the same node out again,
            // so this spins on it until the stale holder releases.
            pool_.deallocate_raw(raw);
        }
    }

    void release(node* n) {
        std::uint64_t cur = n->rc.load(std::memory_order_acquire);
        for (;;) {
            if (cur == one_ref) {
                // Last count and unclaimed: try to claim and free, exactly
                // once across all racers.
                if (n->rc.compare_exchange_weak(cur, claim_bit,
                                                std::memory_order_acq_rel)) {
                    pool_.deallocate_raw(n);
                    return;
                }
            } else {
                // Count > 1, or claim already set (stale pair resolving on a
                // node that is already on the freelist): plain decrement.
                if (n->rc.compare_exchange_weak(cur, cur - one_ref,
                                                std::memory_order_acq_rel)) {
                    return;
                }
            }
        }
    }

    sim::instrumented_atomic<node*> head_{nullptr};
    alloc::typed_pool<node> pool_;
};

}  // namespace lfrc::containers
