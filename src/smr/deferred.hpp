// smr::deferred — thread-local deferred reference counting (the ABW /
// libsref construction: per-thread delta caches + a review queue).
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
//     stamped with the current epoch and pushed on a review queue. The
//     reviewer frees it only after (a) re-checking the count is still zero
//     and (b) a grace period has elapsed since the stamp — closing the race
//     where an unflushed table delta or a pinned reader still covers the
//     node. Children released by a free go back through the same machinery,
//     so deep chains unravel iteratively, never recursively.
//
// Safety argument (DESIGN.md §12 gives the full version):
//   invariant  authoritative(n) + Σ unflushed table deltas(n)
//              = #links to n + #live owner (birth) refs, and every thread
//              holding an unflushed delta is pinned.
//   stamping   every negative apply stamps the node with global+1 BEFORE
//              the subtraction (monotonic max), so the stamp the reviewer
//              reads after observing count==0 is at least as fresh as the
//              crossing it observed (reviewer read order: epoch, then
//              count, then stamp).
//   freeing    requires count==0 ∧ global ≥ stamp+2. Any thread pinned at
//              free time has announce ≥ global-1 ≥ stamp+1, i.e. pinned
//              only *after* the zero-crossing; it can have obtained a
//              reference to n only through a link whose +1 would be visible
//              in the authoritative count (reviewer re-reads it) or held by
//              a thread pinned since before the crossing — whose announce
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

// rc_ layout: bit 63 is the review-queue claim (QUEUED), bits 0..62 the
// authoritative count. Counts never underflow (asserted), so two's-
// complement adds of negative deltas cannot borrow into the claim bit.
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
    // Review-queue Treiber link; owned by whoever holds the QUEUED claim.
    std::atomic<deferred_node*> review_next_{nullptr};

    deferred_node() noexcept = default;
    virtual ~deferred_node() = default;
    /// Release every child reference (smr_children enumeration). Called by
    /// the reviewer exactly once, just before delete.
    virtual void smr_release_children_() noexcept = 0;
};

/// Process-wide runtime: the per-thread delta tables, the review queue, and
/// the reviewer. Leaked singleton (like the epoch domain) registered as the
/// epoch domain's aux reclaimer, so every existing pending()/drain_all()/
/// clear_slot() path covers the review backlog with no caller changes.
class runtime {
  public:
    static constexpr std::size_t table_size = 64;   // power of two
    static constexpr std::size_t probe_limit = 8;
    static constexpr std::uint64_t review_threshold = 64;

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
        std::size_t self = 0;          // this cache's registry slot (set by cache())
        std::uint64_t depth = 0;       // guard nesting
        std::uint64_t detections = 0;  // zero-crossings since last review
        // Epoch at this thread's last review. Nothing stamped since then
        // can be eligible until the global epoch moves again, so reviews
        // are gated on epoch advancement — without this, every 64th guard
        // exit walks the whole grace-blocked queue and churn goes
        // quadratic (the exact trap epoch.cpp's last_scan_epoch avoids).
        std::uint64_t last_review_epoch = 0;
        bool reviewing = false;        // re-entrancy latch
    };

    /// Per-slot review-queue shard (ebr's per-slot retired stacks, for the
    /// same reasons: detections push to the detecting thread's own head, so
    /// the queue is not one process-wide contended cache line, and a
    /// steady-state review walks only the reviewer's shard). `count` is a
    /// signed delta — a node may be freed by a different slot than the one
    /// that pushed it; the SUM across shards is the true backlog.
    struct review_shard {
        std::atomic<deferred_node*> head{nullptr};
        std::atomic<std::int64_t> count{0};
    };

    static runtime& instance() {
        // Leaked: releases can happen during static destruction.
        // lfrc-lint: exempt(R4) — runtime is infrastructure, not a node
        static auto* r = new runtime;
        return *r;
    }

    slot_cache& cache() {
        const std::size_t s = util::thread_registry::instance().slot();
        slot_cache& c = *caches_[s];
        c.self = s;
        return c;
    }

    /// Count adjustments. Recorded in the delta table while pinned (guard
    /// depth > 0); applied to the authoritative count directly otherwise.
    void add_ref(deferred_node* n) {
        if (n != nullptr) adjust(n, +1);
    }
    void release(deferred_node* n) {
        if (n != nullptr) adjust(n, -1);
    }

    /// Outermost-guard exit: flush this thread's deltas (still pinned —
    /// the policy guard's destructor body runs before its epoch pin member
    /// is destroyed), then maybe run a bounded review pass.
    void guard_closed(slot_cache& c) {
        flush(c);
        if (c.detections < review_threshold || c.reviewing) return;
        auto& dom = reclaim::epoch_domain::global();
        std::uint64_t g = dom.global_epoch();
        if (g == c.last_review_epoch) {
            dom.try_advance();
            g = dom.global_epoch();
            if (g == c.last_review_epoch) {
                // Stuck (a peer is parked in a guard): nothing stamped
                // since the last review can be eligible. Back the counter
                // off halfway so the retry happens every ~threshold/2
                // detections, not on every guard exit.
                c.detections = review_threshold / 2;
                return;
            }
        }
        c.last_review_epoch = g;
        c.detections = 0;
        // One pass: frees everything currently eligible in our shard.
        // Children released by those frees re-enter the queue and ride the
        // next epoch's review (cascades here are shallow — entry → box);
        // multi-pass cascade chasing is the drain path's job.
        process_review(/*max_passes=*/1, /*all_shards=*/false);
    }

    /// Review-queue backlog (nodes at count zero awaiting their grace
    /// period). The epoch domain adds this into pending().
    std::uint64_t review_pending() const noexcept {
        std::int64_t total = 0;
        const std::size_t high = util::thread_registry::instance().high_water();
        for (std::size_t s = 0; s < high; ++s) {
            total += shards_[s]->count.load(std::memory_order_acquire);  // lfrc-lint: order(deferred-shard-counter)
        }
        return total > 0 ? static_cast<std::uint64_t>(total) : 0;
    }

    /// Drive the review queue. Each pass tries one epoch advance, steals
    /// this thread's shard (every shard on the drain path), frees every
    /// node whose zero-crossing is two epochs old, and re-queues survivors
    /// on the caller's shard. Children released by a free are re-queued and
    /// picked up by a later pass (iterative cascade). Stops when a pass
    /// neither frees nor advances — at quiescence try_advance always
    /// succeeds, so a teardown drain empties arbitrary chains.
    void process_review(int max_passes, bool all_shards) noexcept {
        auto& dom = reclaim::epoch_domain::global();
        slot_cache& c = cache();
        if (c.reviewing) return;
        c.reviewing = true;
        review_shard& home = *shards_[c.self];
        const int cap = max_passes > 0 ? max_passes : 4096;
        for (int pass = 0; pass < cap; ++pass) {
            const bool advanced = dom.try_advance();
            // Read order matters (header comment): epoch BEFORE count and
            // stamp, count BEFORE stamp. An older epoch only under-frees.
            const std::uint64_t g = dom.global_epoch();
            std::size_t freed = 0;
            bool stole_any = false;
            deferred_node* keep_head = nullptr;
            deferred_node* keep_tail = nullptr;
            const auto keep = [&](deferred_node* k) {
                k->review_next_.store(keep_head, std::memory_order_relaxed);  // lfrc-lint: order(review-link)
                keep_head = k;
                if (keep_tail == nullptr) keep_tail = k;
            };
            const std::size_t lo = all_shards ? 0 : c.self;
            const std::size_t hi =
                all_shards ? util::thread_registry::instance().high_water() : c.self + 1;
            for (std::size_t s = lo; s < hi; ++s) {
                deferred_node* n =
                    shards_[s]->head.exchange(nullptr, std::memory_order_acq_rel);  // lfrc-lint: order(review-queue-head)
                if (n != nullptr) stole_any = true;
                while (n != nullptr) {
                    deferred_node* next = n->review_next_.load(std::memory_order_relaxed);  // lfrc-lint: order(review-link)
                    const std::uint64_t rc = n->rc_.load(std::memory_order_seq_cst);
                    if ((rc & count_mask) != 0) {
                        // Resurrected by a flushed increment: hand zero
                        // detection back to the decrementers by releasing
                        // the claim — but only through a CAS that requires
                        // count > 0. The moment the claim is released, a
                        // concurrent final release may re-queue n and a
                        // second reviewer may free it, so n must never be
                        // touched after a successful release. On CAS
                        // failure the claim is still ours (nobody else
                        // clears the bit) and re-examining n is safe.
                        std::uint64_t cur = rc;
                        bool released = false;
                        while ((cur & count_mask) != 0) {
                            if (n->rc_.compare_exchange_weak(cur, cur & ~queued_bit,
                                                             std::memory_order_seq_cst)) {
                                released = true;
                                break;
                            }
                        }
                        if (released) {
                            // Someone holds a real reference; its release
                            // will re-detect zero. The node leaves the queue.
                            home.count.fetch_sub(1, std::memory_order_relaxed);  // lfrc-lint: order(deferred-shard-counter)
                        } else {
                            // The count dropped back to zero while WE still
                            // held the claim, so the crossing decrementer
                            // skipped the push: re-stamp and re-queue.
                            stamp(n);
                            keep(n);
                        }
                    } else {
                        const std::uint64_t st =
                            n->review_stamp_.load(std::memory_order_seq_cst);
                        if (g >= st + 2) {
                            n->smr_release_children_();
                            delete n;  // lfrc-lint: arena-route
                            home.count.fetch_sub(1, std::memory_order_relaxed);  // lfrc-lint: order(deferred-shard-counter)
                            ++freed;
                        } else {
                            keep(n);
                        }
                    }
                    n = next;
                }
            }
            // Re-homing survivors moves nodes between shards but not their
            // count: the per-shard counts are signed deltas whose sum is
            // the backlog (exactly epoch.cpp's pending_delta convention).
            if (keep_head != nullptr) push_review_chain(home, keep_head, keep_tail);
            if (!stole_any) break;
            if (freed == 0 && !advanced) break;
        }
        c.reviewing = false;
    }

    /// Aux clear_slot hook body: flush an abandoned/joined slot's table and
    /// reset its guard state — the abandoned fiber's guards never exit, and
    /// the slot's next tenant must start unnested.
    void flush_slot(std::size_t s) noexcept {
        slot_cache& c = *caches_[s];
        flush(c);
        c.depth = 0;
        c.detections = 0;
        c.reviewing = false;
    }

  private:
    runtime() {
        reclaim::epoch_domain::global().register_aux(&aux_pending, &aux_drain, &aux_clear);
    }

    static std::uint64_t aux_pending() noexcept { return instance().review_pending(); }
    static void aux_drain() noexcept {
        instance().process_review(/*max_passes=*/0, /*all_shards=*/true);
    }
    static void aux_clear(std::size_t s) noexcept { instance().flush_slot(s); }

    static std::size_t hash(const deferred_node* n) noexcept {
        auto x = reinterpret_cast<std::uintptr_t>(n) >> 4;
        x *= 0x9E3779B97F4A7C15ull;
        return static_cast<std::size_t>(x >> 58) & (table_size - 1);
    }

    void adjust(deferred_node* n, std::int64_t d) {
        slot_cache& c = cache();
        if (c.depth == 0) {
            apply(c, n, d);
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
        apply(c, n, d);
    }

    void flush(slot_cache& c) {
        for (std::uint32_t i = 0; i < c.ndirty; ++i) {
            entry& e = c.entries[c.dirty[i]];
            if (e.delta != 0) apply(c, e.node, e.delta);
            e.node = nullptr;
            e.delta = 0;
        }
        c.ndirty = 0;
    }

    void apply(slot_cache& c, deferred_node* n, std::int64_t d) {
        // Stamp BEFORE any potentially-crossing subtraction: a racing
        // reviewer that observes our zero must also observe a stamp at
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
                review_shard& sh = *shards_[c.self];
                sh.count.fetch_add(1, std::memory_order_relaxed);  // lfrc-lint: order(deferred-shard-counter)
                push_review_chain(sh, n, n);
                ++c.detections;
            }
        }
    }

    void stamp(deferred_node* n) noexcept {
        const std::uint64_t s = reclaim::epoch_domain::global().global_epoch() + 1;
        std::uint64_t cur = n->review_stamp_.load(std::memory_order_seq_cst);
        while (cur < s) {
            if (n->review_stamp_.compare_exchange_weak(cur, s, std::memory_order_seq_cst)) {
                break;
            }
        }
    }

    // Does NOT touch the shard count: a pushed node is counted exactly
    // once, at its zero-detection — reviewer re-pushes of survivors are
    // moves, not new entries.
    void push_review_chain(review_shard& sh, deferred_node* head,
                           deferred_node* tail) noexcept {
        deferred_node* old_head = sh.head.load(std::memory_order_relaxed);  // lfrc-lint: order(review-queue-head)
        do {
            tail->review_next_.store(old_head, std::memory_order_relaxed);  // lfrc-lint: order(review-link)
        } while (!sh.head.compare_exchange_weak(old_head, head,  // lfrc-lint: order(review-queue-head)
                                                std::memory_order_acq_rel));
    }

    util::padded<slot_cache> caches_[util::thread_registry::max_threads];
    util::padded<review_shard> shards_[util::thread_registry::max_threads];
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

    /// Adapts smr_children to the reviewer's child-release walk.
    template <typename Node>
    struct node_base : deferred_detail::deferred_node {
      private:
        void smr_release_children_() noexcept override {
            [[maybe_unused]] std::size_t visited = 0;
            auto& r = rt::instance();
            static_cast<Node*>(this)->smr_children([&r, &visited](auto& field) {
                ++visited;
                r.release(field.exclusive_get());
            });
            if constexpr (smr::detail::has_smr_link_count<Node>::value) {
                assert(visited == Node::smr_link_count &&
                       "smr_children visited a different number of fields "
                       "than smr_link_count declares");
            }
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
            if (--c_->depth == 0) rt::instance().guard_closed(*c_);
        }
        guard(const guard&) = delete;
        guard& operator=(const guard&) = delete;

      private:
        rt::slot_cache* c_;
        reclaim::epoch_domain::guard pin_{reclaim::epoch_domain::global()};
    };

    // ---- link / vslot writes: cell_ops' raw CAS/DCAS/CASN plus deltas ----

    template <typename Node>
    void init_link(cell_link<Node>& A, Node* v) {
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
    bool cas_link(cell_link<Node>& A, Node* old0, Node* new0) {
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
    bool dcas_link_flag(cell_link<Node>& A, typename ops::flag& F, Node* old0, bool old_flag,
                        Node* new0, bool new_flag) {
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
    void reset_chain(cell_link<Node>& head) {
        // Severing the head reference unravels the chain iteratively
        // through the review queue (children release on each free).
        Node* n = head.exclusive_get();
        head.exclusive_set(nullptr);
        rt::instance().release(n);
    }
    template <typename Node>
    void register_root(cell_link<Node>&) noexcept {}

    template <typename T>
    bool vinstall_if_live(cell_vslot<T>& s, std::uint64_t ver, T* old0, T* new0,
                          typename ops::flag& dead) {
        auto& r = rt::instance();
        r.add_ref(new0);
        if (!ops::install_if_live(s, ver, old0, new0, dead)) {
            r.release(new0);
            return false;
        }
        r.release(old0);
        return true;
    }
    template <typename T>
    bool vclaim_mark_dead(cell_vslot<T>& s, std::uint64_t ver, T* old0,
                          typename ops::flag& dead) {
        if (!ops::claim_mark_dead(s, ver, old0, dead)) return false;
        rt::instance().release(old0);
        return true;
    }

    std::uint64_t pending() const noexcept {
        // Includes the review backlog: runtime registers as the epoch
        // domain's aux reclaimer.
        return reclaim::epoch_domain::global().pending();
    }
    std::uint64_t drain(int rounds) { return detail::drain_epoch_domain(rounds); }
};

}  // namespace lfrc::smr
