// smr::deferred — thread-local deferred reference counting (the ABW /
// libsref construction: per-thread delta caches over a manual reclaimer).
//
// E6/E9 show exactly where the paper's counted operations lose to the
// manual schemes: every LFRCLoad is a CAS on a *shared* count word, so a
// read-mostly workload serializes on the hottest nodes' cache lines. This
// policy keeps the paper's reference-counting semantics — links own counts,
// zero means unreachable, children release recursively — but makes the
// count traffic thread-local:
//
//   * A guard pins an epoch (the same reclaim::epoch_domain behind ebr and
//     borrowed). Pinned readers touch no counts at all: protect() is a raw
//     pointer read, memory-safe because frees wait out a grace period.
//   * Link writes (cas_link / dcas_link_flag / vinstall / vclaim) record
//     their +1/-1 count deltas in a per-thread, cache-line-padded delta
//     table keyed by node, instead of CAS-ing the node's shared count. The
//     table flushes into the authoritative per-node count when the
//     outermost guard exits (and deltas for the same node cancel in place:
//     a push's birth -1 and link +1 never touch the shared line).
//   * A node whose authoritative count reaches zero is not freed: it is
//     stamped with the current epoch and retired into the epoch domain
//     with review() as its deleter (Anderson, Blelloch & Wei: a zero-count
//     object is retired into the manual scheme underneath). The review
//     frees it only after (a) re-checking the count is still zero and (b)
//     a grace period has elapsed since the stamp — closing the race where
//     an unflushed table delta or a pinned reader still covers the node.
//     Children released by a free go back through the same machinery, so
//     deep chains unravel iteratively across drain passes, never
//     recursively.
//
// Safety argument (DESIGN.md §12 gives the full version):
//   invariant  authoritative(n) + Σ unflushed table deltas(n)
//              = #links to n + #live owner (birth) refs, and every thread
//              holding an unflushed delta is pinned.
//   stamping   every negative apply stamps the node with global+1 BEFORE
//              the subtraction (monotonic max), so the stamp the review
//              reads after observing count==0 is at least as fresh as the
//              crossing it observed (review read order: epoch, then count,
//              then stamp).
//   freeing    requires count==0 ∧ global ≥ stamp+2. The domain runs the
//              review at global ≥ r+3, and r is read after the stamp, so
//              the crossing that retired the node already satisfies it;
//              the re-check catches a crossing that came back while the
//              node was queued. Any thread pinned at free time has
//              announce ≥ global-1 ≥ stamp+1, i.e. pinned only *after*
//              the zero-crossing; it can have obtained a reference to n
//              only through a link whose +1 would be visible in the
//              authoritative count (the review re-reads it) or held by a
//              thread pinned since before the crossing — whose announce
//              bounds global below stamp+2, contradicting the free
//              condition.
//
// The policy satisfies the full smr::policy contract, so the four container
// cores and store::kv_store run unmodified; counted_links is true because
// link operations transfer counts (retire_unlinked is a no-op, teardown is
// a single head release). Under LFRC_SIM the count word and stamp are
// instrumented atomics, so the flush/final-release/review races are
// schedule-explorable with shadow-heap checking.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "alloc/counted.hpp"
#include "dcas/cell.hpp"
#include "dcas/mcas_engine.hpp"
#include "reclaim/epoch.hpp"
#include "sim/instrumented.hpp"
#include "smr/policy.hpp"
#include "util/cacheline.hpp"
#include "util/thread_registry.hpp"

namespace lfrc::smr {

namespace deferred_detail {

// rc_ layout: bit 63 is the retire claim (QUEUED: the node has a record
// in the epoch domain), bits 0..62 the authoritative count. Counts never
// underflow (asserted), so two's-complement adds of negative deltas cannot
// borrow into the claim bit.
inline constexpr std::uint64_t queued_bit = std::uint64_t{1} << 63;
inline constexpr std::uint64_t count_mask = queued_bit - 1;

/// Untyped node header shared by every deferred policy instantiation.
/// Lives in front of the user node via node_base below; counted_base routes
/// allocation through the tracker (leak accounting, sim shadow heap).
struct deferred_node : alloc::counted_base {
    // Authoritative count; starts at 1 (the owner's birth reference).
    sim::instrumented_atomic<std::uint64_t> rc_{std::uint64_t{1}};
    // Epoch stamp of the last observed zero-crossing (monotonic max).
    sim::instrumented_atomic<std::uint64_t> review_stamp_{0};

    deferred_node() noexcept = default;
    virtual ~deferred_node() = default;
    /// Release every child reference (smr_children enumeration). Called by
    /// the review exactly once, just before delete.
    virtual void smr_release_children_() noexcept = 0;
};

/// Process-wide runtime: the per-thread delta tables and the review.
/// Leaked singleton (like the epoch domain) registered as the epoch
/// domain's aux hook, so clear_slot() flushes an abandoned slot's table.
class runtime {
  public:
    static constexpr std::size_t table_size = 64;   // power of two
    static constexpr std::size_t probe_limit = 8;

    struct entry {
        deferred_node* node = nullptr;
        std::int64_t delta = 0;
    };

    /// One thread's delta table. Owner-thread-only except for the
    /// aux clear_slot flush, which runs only for abandoned sim fibers and
    /// joined workers (happens-before via the harness / join).
    struct slot_cache {
        entry entries[table_size];
        std::uint16_t dirty[table_size] = {};
        std::uint32_t ndirty = 0;
        std::uint64_t depth = 0;  // guard nesting
    };

    static runtime& instance() {
        // Leaked: releases can happen during static destruction.
        // lfrc-lint: exempt(R4) — runtime is infrastructure, not a node
        static auto* r = new runtime;
        return *r;
    }

    slot_cache& cache() { return *caches_[util::thread_registry::instance().slot()]; }

    /// Count adjustments. Recorded in the delta table while pinned (guard
    /// depth > 0); applied to the authoritative count directly otherwise.
    void add_ref(deferred_node* n) {
        if (n != nullptr) adjust(n, +1);
    }
    void release(deferred_node* n) {
        if (n != nullptr) adjust(n, -1);
    }

    /// Outermost-guard exit: apply this thread's deltas. The caller is
    /// still pinned — the policy guard's destructor body runs before its
    /// epoch pin member is destroyed.
    void flush(slot_cache& c) {
        for (std::uint32_t i = 0; i < c.ndirty; ++i) {
            entry& e = c.entries[c.dirty[i]];
            if (e.delta != 0) apply(e.node, e.delta);
            e.node = nullptr;
            e.delta = 0;
        }
        c.ndirty = 0;
    }

  private:
    runtime() { reclaim::epoch_domain::global().register_aux(&aux_clear); }

    /// Aux clear_slot hook: flush an abandoned/joined slot's table and
    /// reset its guard depth — the abandoned fiber's guards never exit, and
    /// the slot's next tenant must start unnested.
    static void aux_clear(std::size_t s) noexcept {
        slot_cache& c = *instance().caches_[s];
        instance().flush(c);
        c.depth = 0;
    }

    /// The epoch deleter of a claimed node. The domain runs it at
    /// global ≥ r + 3 for the record retired at r (DESIGN.md §12).
    static void review(void* p) noexcept {
        auto* n = static_cast<deferred_node*>(p);
        auto& dom = reclaim::epoch_domain::global();
        // Read order matters (header comment): epoch BEFORE count and
        // stamp, count BEFORE stamp. An older epoch only under-frees.
        const std::uint64_t g = dom.global_epoch();
        std::uint64_t rc = n->rc_.load(std::memory_order_seq_cst);
        if ((rc & count_mask) != 0) {
            // Resurrected by a flushed increment: hand zero detection back
            // to the decrementers by releasing the claim — but only through
            // a CAS that requires count > 0. The moment the claim is
            // released, a concurrent final release may retire n again and
            // another thread's drain may free it, so n must never be
            // touched after a successful release. On CAS failure the claim
            // is still ours (nobody else clears the bit).
            while ((rc & count_mask) != 0) {
                if (n->rc_.compare_exchange_weak(rc, rc & ~queued_bit,
                                                 std::memory_order_seq_cst)) {
                    return;
                }
            }
            // The count dropped back to zero while we still held the claim,
            // so the crossing decrementer skipped the retire: re-stamp.
            stamp(n);
        } else if (g >= n->review_stamp_.load(std::memory_order_seq_cst) + 2) {
            // smr_release_children_ reads n's cells as their single owner
            // (exclusive_get, through the engine, so a word a stale helper
            // parked there resolves to the value). Sound: every deferred
            // engine operation, and so every helper it runs, is under a
            // guard pinned while n could still be reached, and this free
            // waits for global ≥ r + 3, past every such pin. No helper that
            // validated against n can still be running.
            n->smr_release_children_();
            delete n;  // lfrc-lint: arena-route
            return;
        }
        dom.retire(n, &review);
    }

    static std::size_t hash(const deferred_node* n) noexcept {
        auto x = reinterpret_cast<std::uintptr_t>(n) >> 4;
        x *= 0x9E3779B97F4A7C15ull;
        return static_cast<std::size_t>(x >> 58) & (table_size - 1);
    }

    void adjust(deferred_node* n, std::int64_t d) {
        slot_cache& c = cache();
        if (c.depth == 0) {
            apply(n, d);
            return;
        }
        const std::size_t h = hash(n);
        for (std::size_t k = 0; k < probe_limit; ++k) {
            entry& e = c.entries[(h + k) & (table_size - 1)];
            if (e.node == n) {
                e.delta += d;
                return;
            }
            if (e.node == nullptr) {
                e.node = n;
                e.delta = d;
                c.dirty[c.ndirty++] = static_cast<std::uint16_t>((h + k) & (table_size - 1));
                return;
            }
        }
        // Table pressure: apply through. Sound in both directions — we hold
        // the pin, so this is just an early flush of one entry.
        apply(n, d);
    }

    static void apply(deferred_node* n, std::int64_t d) {
        // Stamp BEFORE any potentially-crossing subtraction: a racing
        // review that observes our zero must also observe a stamp at
        // least this fresh (it reads the count before the stamp).
        if (d < 0) stamp(n);
        const std::uint64_t old =
            n->rc_.fetch_add(static_cast<std::uint64_t>(d), std::memory_order_seq_cst);
        assert(static_cast<std::int64_t>(old & count_mask) + d >= 0 &&
               "deferred count underflow: more releases than references");
        const std::uint64_t now = old + static_cast<std::uint64_t>(d);
        if ((now & count_mask) == 0 && (now & queued_bit) == 0) {
            std::uint64_t expected = 0;
            if (n->rc_.compare_exchange_strong(expected, queued_bit,
                                               std::memory_order_seq_cst)) {
                reclaim::epoch_domain::global().retire(n, &review);
            }
        }
    }

    static void stamp(deferred_node* n) noexcept {
        const std::uint64_t s = reclaim::epoch_domain::global().global_epoch() + 1;
        std::uint64_t cur = n->review_stamp_.load(std::memory_order_seq_cst);
        while (cur < s) {
            if (n->review_stamp_.compare_exchange_weak(cur, s, std::memory_order_seq_cst)) {
                break;
            }
        }
    }

    util::padded<slot_cache> caches_[util::thread_registry::max_threads];
};

}  // namespace deferred_detail

/// The deferred-RC policy. counted_links is true: link operations transfer
/// counts exactly like the counted policies (so retire_unlinked is a no-op
/// and reset_chain is one head release), they just do the bookkeeping in
/// the calling thread's delta table instead of the node's shared count.
template <typename Engine = dcas::mcas_engine>
class deferred : public cell_ops<Engine> {
    using rt = deferred_detail::runtime;
    using ops = cell_ops<Engine>;

  public:
    static constexpr const char* name() noexcept { return "deferred"; }
    static constexpr bool counted_links = true;
    // Traversing a logically deleted node is safe: the epoch pin keeps its
    // frozen successor chain allocated for the guard's lifetime.
    static constexpr bool has_lazy_traverse = true;
    static constexpr std::size_t guard_slots = 4;

    /// Adapts smr_children to the review's child-release walk.
    template <typename Node>
    struct node_base : deferred_detail::deferred_node {
      private:
        void smr_release_children_() noexcept override {
            auto& r = rt::instance();
            smr::detail::visit_children(*static_cast<Node*>(this),
                                        [&r](auto& field) { r.release(field.exclusive_get()); });
        }
    };

    /// Holds the birth reference (rc_ starts at 1). publish_ok is a no-op —
    /// the publishing CAS added the structure's own count, and the owner's
    /// destructor releases the birth count either way (counted semantics).
    template <typename Node>
    class owner {
      public:
        owner() = default;
        ~owner() {
            if (p_ != nullptr) rt::instance().release(p_);
        }
        owner(owner&& o) noexcept : p_(o.p_) { o.p_ = nullptr; }
        owner& operator=(owner&& o) noexcept {
            if (this != &o) {
                if (p_ != nullptr) rt::instance().release(p_);
                p_ = o.p_;
                o.p_ = nullptr;
            }
            return *this;
        }
        owner(const owner&) = delete;
        owner& operator=(const owner&) = delete;

        Node* get() const noexcept { return p_; }
        Node* operator->() const noexcept { return p_; }
        explicit operator bool() const noexcept { return p_ != nullptr; }

      private:
        friend deferred;
        explicit owner(Node* p) noexcept : p_(p) {}
        Node* p_ = nullptr;
    };

    template <typename Node, typename... Args>
    owner<Node> make_owner(Args&&... args) {
        // lfrc-lint: arena-route — deferred_node : counted_base
        return owner<Node>(new Node(std::forward<Args>(args)...));
    }
    template <typename Node>
    void publish_ok(owner<Node>&) noexcept {}

    struct thread_scope {
        explicit thread_scope(deferred&) noexcept {}
    };

    /// Stateless slots: protection is the epoch pin, reads are raw. The
    /// destructor body flushes the thread's delta table BEFORE the pin_
    /// member releases the epoch — the safety invariant requires every
    /// table delta to be applied while its recorder is still pinned.
    class guard : public ops::stateless_guard {
      public:
        explicit guard(deferred&) noexcept : c_(&rt::instance().cache()) { ++c_->depth; }
        ~guard() {
            if (--c_->depth == 0) rt::instance().flush(*c_);
        }
        guard(const guard&) = delete;
        guard& operator=(const guard&) = delete;

      private:
        rt::slot_cache* c_;
        reclaim::epoch_domain::guard pin_{reclaim::epoch_domain::global()};
    };

    // ---- link / vslot writes: the raw CAS/DCAS/CASN plus deltas ----------

    template <typename Node>
    void init_link(typename ops::template link<Node>& A, Node* v) {
        auto& r = rt::instance();
        r.add_ref(v);
        Node* old = A.exclusive_get();
        A.exclusive_set(v);
        r.release(old);
    }
    /// +1 new before the CAS, -1 old on success, -1 new (undo) on failure:
    /// the transferred counts are accounted before any window in which
    /// another thread could observe the new link.
    template <typename Node>
    bool cas_link(typename ops::template link<Node>& A, Node* old0, Node* new0) {
        auto& r = rt::instance();
        r.add_ref(new0);
        if (ops::cas_link(A, old0, new0)) {
            r.release(old0);
            return true;
        }
        r.release(new0);
        return false;
    }
    template <typename Node>
    bool dcas_link_flag(typename ops::template link<Node>& A, typename ops::flag& F, Node* old0,
                        bool old_flag, Node* new0, bool new_flag) {
        auto& r = rt::instance();
        r.add_ref(new0);
        if (ops::dcas_link_flag(A, F, old0, old_flag, new0, new_flag)) {
            r.release(old0);
            return true;
        }
        r.release(new0);
        return false;
    }

    template <typename Node>
    void retire_unlinked(Node*) noexcept {}  // the count transfer already did it

    template <typename Node>
    void reset_chain(typename ops::template link<Node>& head) {
        // Severing the head reference unravels the chain iteratively
        // through the epoch domain (children release on each free).
        Node* n = head.exclusive_get();
        head.exclusive_set(nullptr);
        rt::instance().release(n);
    }
    template <typename Node>
    void register_root(typename ops::template link<Node>&) noexcept {}

    template <typename T>
    bool vinstall_if_live(typename ops::template vslot<T>& s, std::uint64_t ver, T* old0,
                          T* new0, typename ops::flag& dead) {
        auto& r = rt::instance();
        r.add_ref(new0);
        if (!dcas::install_if_live(s, ver, old0, new0, dead)) {
            r.release(new0);
            return false;
        }
        r.release(old0);
        return true;
    }
    template <typename T>
    bool vclaim_mark_dead(typename ops::template vslot<T>& s, std::uint64_t ver, T* old0,
                          typename ops::flag& dead) {
        if (!dcas::claim_mark_dead(s, ver, old0, dead)) return false;
        rt::instance().release(old0);
        return true;
    }

    std::uint64_t pending() const noexcept { return reclaim::epoch_domain::global().pending(); }
    std::uint64_t drain(int rounds) { return reclaim::epoch_domain::global().drain(rounds); }
};

}  // namespace lfrc::smr
