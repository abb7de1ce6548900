// lfrc::store — a sharded, GC-independent in-memory key-value store,
// generic over the reclamation policy.
//
// This is the layer that composes the repo's individual containers into a
// serving workload: the shape concurrent-reference-counting systems are
// judged by (Anderson/Blelloch/Wei's store benchmarks; Brown's reclaimer
// comparisons). Everything below is built from existing seams — no new
// synchronization primitives:
//
//   policy        the first template parameter is an lfrc::smr policy. The
//                 SAME store body runs over counted, borrowed, ebr, hp,
//                 leaky and deferred reclamation — the policy axis E9
//                 benchmarks. smr::gc_heap is excluded: its guard offers
//                 no versioned value slots (the gc-vs-lfrc comparison is
//                 E8's, at container granularity).
//   sharding      N power-of-two shards of B buckets, each bucket a
//                 containers::list_core chain (the DCAS-deletion list
//                 protocol), so contention and chain length shrink by
//                 shards × buckets. The buckets are one contiguous
//                 list_heads array, shard-major (shard s owns heads
//                 [s·B, (s+1)·B)): a bucket is a 16-byte inline head, with
//                 no sentinel node and no per-bucket heap object.
//   values        each entry owns its current value through a P::vslot: a
//                 (pointer, version) cell pair. For counted policies the
//                 pointer half carries the LFRC count; the version half
//                 makes every write observable, which is what get/cas key
//                 off. Versions are per-entry value-slot versions: 0 means
//                 "no value ever written here" (absent), and an entry
//                 reincarnated after erase restarts at 0 — consistent,
//                 because version 0 *means* absent.
//   reads         get() walks the bucket on the policy's lazy traverse
//                 grade — for `borrowed` that is the epoch-borrowed fast
//                 path, zero refcount traffic per read. get_counted() runs
//                 the same lookup through the strong (helping) search.
//   writes        put = vprotect + vinstall_if_live (version bump,
//                 conditioned on the entry being live); cas = the same with
//                 a version precondition — a CASN on (pointer, version,
//                 dead-flag) is exactly "compare-and-swap on the value
//                 version, iff the entry still holds the key".
//   TTL           value boxes carry an absolute expiry deadline; reads
//                 treat expired boxes as misses and lazily clear them with
//                 a version-tied install (so an expiry sweep can never
//                 clobber a racing fresh put). sweep_expired() does the
//                 same eagerly and then drains the policy so the memory
//                 actually shrinks.
//   shutdown      drain() severs every bucket chain and drives the
//                 policy's bounded drain to completion.
//
// Linearizability around entry removal: erase claims the entry's value AND
// marks the entry dead in ONE atomic step (P::vclaim_mark_dead, a 3-word
// CASN over the value pointer, its version, and the dead flag), and every
// value write (put/cas/expiry) is conditioned on the flag still being false
// in the same step (P::vinstall_if_live). So a value can never land in an
// entry a racing eraser has claimed: the write either linearizes strictly
// before the erase (the eraser's snapshot saw it) or fails and retries
// against the key's current entry. The earlier write-then-recheck protocol
// left a window the sim harness (tests/sim/sim_store_test.cpp) caught; the
// CASN closes it. A dead entry's frozen (null) value slot and chain link
// are released by the policy's teardown/retire paths, so nothing leaks
// either way.
//
// The store never reads a clock: expiry decisions take `now_ns` explicitly
// (callers use util::stopwatch / steady_clock; tests and the sim harness
// pass synthetic times, keeping schedules deterministic).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>

#include "containers/list_core.hpp"
#include "lfrc/lfrc.hpp"
#include "smr/smr.hpp"
#include "util/hash.hpp"
#include "util/slot_striped.hpp"

namespace lfrc::store {

/// Aggregated operation counters (per-thread-slot striped; see
/// kv_store::stats).
struct store_stats {
    std::uint64_t gets = 0;
    std::uint64_t hits = 0;
    std::uint64_t puts = 0;
    std::uint64_t erases = 0;
    std::uint64_t cas_ok = 0;
    std::uint64_t cas_fail = 0;
    std::uint64_t expired = 0;

    double hit_rate() const {
        return gets > 0 ? static_cast<double>(hits) / static_cast<double>(gets) : 0.0;
    }
};

template <typename Policy, typename Key, typename Value, typename Hash = std::hash<Key>>
class kv_store {
  public:
    using policy_t = Policy;
    static_assert(lfrc::smr::policy<policy_t>);

    struct config {
        std::size_t shards = 8;             ///< rounded up to a power of two
        std::size_t buckets_per_shard = 64;
    };

    /// A versioned read: `found` distinguishes a live value from absence;
    /// `version` is the entry's value-slot version either way (0 = absent /
    /// never written), usable as the expected version of a later cas().
    struct versioned {
        bool found = false;
        Value value{};
        std::uint64_t version = 0;
    };

    explicit kv_store(config cfg = {})
        : shard_mask_(pow2_at_least(cfg.shards) - 1),
          buckets_per_shard_(cfg.buckets_per_shard > 0 ? cfg.buckets_per_shard : 1),
          buckets_(policy_, (shard_mask_ + 1) * buckets_per_shard_) {}

    kv_store(const kv_store&) = delete;
    kv_store& operator=(const kv_store&) = delete;

    // ---- reads ---------------------------------------------------------

    /// Fast-path read on the policy's lazy traverse grade (for `borrowed`:
    /// one epoch pin, zero refcount traffic). An expired value reads as a
    /// miss and is lazily cleared (version-tied, so the clear can never
    /// race out a fresh put).
    std::optional<Value> get(const Key& key, std::uint64_t now_ns = 0) {
        stats_stripe& st = stats_.local();
        st.gets.fetch_add(1, std::memory_order_relaxed);
        typename policy_t::guard g(policy_);
        entry_t* entry = bucket_for(key).find(g, key);
        if (entry == nullptr) return std::nullopt;
        std::uint64_t version = 0;
        box_t* box = g.template vtraverse<box_t>(3, entry->val, version);
        if (box == nullptr) return std::nullopt;
        if (expired(box, now_ns)) {
            // Clearing needs a write license on the entry; a failed upgrade
            // means the entry is being destroyed — already a miss.
            if (g.upgrade(1)) lazy_expire(g, entry, now_ns);
            return std::nullopt;
        }
        st.hits.fetch_add(1, std::memory_order_relaxed);
        return box->payload;
    }

    /// The same read through the strong (helping) search and a strong
    /// value protection: the workload driver's "counted" axis on counted
    /// policies, and the store's only fully-helping read path.
    std::optional<Value> get_counted(const Key& key, std::uint64_t now_ns = 0) {
        stats_stripe& st = stats_.local();
        st.gets.fetch_add(1, std::memory_order_relaxed);
        typename policy_t::guard g(policy_);
        entry_t* entry = find_strong(g, bucket_for(key), key);
        if (entry == nullptr) return std::nullopt;
        std::uint64_t version = 0;
        box_t* box = g.template vprotect<box_t>(3, entry->val, version);
        if (box == nullptr) return std::nullopt;
        if (expired(box, now_ns)) {
            lazy_expire(g, entry, now_ns);
            return std::nullopt;
        }
        st.hits.fetch_add(1, std::memory_order_relaxed);
        return box->payload;
    }

    /// Read returning the value-slot version alongside the value; the
    /// version feeds a later cas(). Absent keys report version 0.
    versioned get_versioned(const Key& key, std::uint64_t now_ns = 0) {
        stats_stripe& st = stats_.local();
        st.gets.fetch_add(1, std::memory_order_relaxed);
        typename policy_t::guard g(policy_);
        entry_t* entry = bucket_for(key).find(g, key);
        if (entry == nullptr) return {};
        std::uint64_t version = 0;
        box_t* box = g.template vtraverse<box_t>(3, entry->val, version);
        if (box == nullptr || expired(box, now_ns)) {
            if (box != nullptr && expired(box, now_ns)) {
                if (g.upgrade(1)) lazy_expire(g, entry, now_ns);
                // The clear (ours or a racer's) bumped the version past the
                // one we read; report absence at the version we witnessed —
                // a cas from it will fail and re-read, which is correct.
            }
            return versioned{false, Value{}, version};
        }
        st.hits.fetch_add(1, std::memory_order_relaxed);
        return versioned{true, box->payload, version};
    }

    // ---- writes --------------------------------------------------------

    /// Unconditional upsert. `ttl_ns` of 0 means the value never expires;
    /// otherwise it expires at now_ns + ttl_ns.
    void put(const Key& key, Value value, std::uint64_t ttl_ns = 0,
             std::uint64_t now_ns = 0) {
        stats_.local().puts.fetch_add(1, std::memory_order_relaxed);
        typename policy_t::guard g(policy_);
        auto box = policy_.template make_owner<box_t>(std::move(value),
                                                      deadline(ttl_ns, now_ns));
        bucket_t bucket = bucket_for(key);
        for (;;) {
            auto [entry, inserted] = bucket.get_or_insert(
                g, key, [&] { return policy_.template make_owner<entry_t>(key); });
            while (!policy_.flag_load(entry->dead)) {
                std::uint64_t version = 0;
                box_t* cur = g.template vprotect<box_t>(3, entry->val, version);
                // The install is atomic with "entry still live" (header
                // comment): a racing erase either sees our value in its
                // claim or makes this fail, never both and never neither.
                if (policy_.vinstall_if_live(entry->val, version, cur, box.get(),
                                             entry->dead)) {
                    policy_.publish_ok(box);
                    return;
                }
            }
            // Entry died under us; its value slot is frozen. Re-search: the
            // key's current entry (or a fresh one) takes the value.
        }
    }

    /// Version compare-and-swap: install `value` iff the key's value-slot
    /// version still equals `expected_version`. expected_version 0 is
    /// create-if-absent. The underlying CASN covers the (pointer, version)
    /// pair, so an intervening put/erase/expiry — even an ABA rewrite of
    /// the same pointer — fails the cas.
    bool cas(const Key& key, std::uint64_t expected_version, Value value,
             std::uint64_t ttl_ns = 0, std::uint64_t now_ns = 0) {
        typename policy_t::guard g(policy_);
        auto box = policy_.template make_owner<box_t>(std::move(value),
                                                      deadline(ttl_ns, now_ns));
        bucket_t bucket = bucket_for(key);
        for (;;) {
            auto [entry, inserted] = bucket.get_or_insert(
                g, key, [&] { return policy_.template make_owner<entry_t>(key); });
            while (!policy_.flag_load(entry->dead)) {
                std::uint64_t version = 0;
                box_t* cur = g.template vprotect<box_t>(3, entry->val, version);
                if (policy_.flag_load(entry->dead)) break;  // frozen slot
                if (version != expected_version) {
                    stats_.local().cas_fail.fetch_add(1, std::memory_order_relaxed);
                    return false;
                }
                if (policy_.vinstall_if_live(entry->val, version, cur, box.get(),
                                             entry->dead)) {
                    stats_.local().cas_ok.fetch_add(1, std::memory_order_relaxed);
                    policy_.publish_ok(box);
                    return true;
                }
                // CASN failed: version moved or the entry died. Re-read; the
                // dead checks above route a dead entry back to re-search.
            }
        }
    }

    /// Remove the key. Returns true when a live, unexpired value was
    /// removed. The value claim and the dead-mark are one CASN (header
    /// comment), so the value this call removes is exactly the one it
    /// witnessed — no write can slip in between snapshot and mark.
    bool erase(const Key& key, std::uint64_t now_ns = 0) {
        typename policy_t::guard g(policy_);
        bucket_t bucket = bucket_for(key);
        for (;;) {
            entry_t* entry = find_strong(g, bucket, key);
            if (entry == nullptr) return false;
            std::uint64_t version = 0;
            box_t* cur = g.template vprotect<box_t>(3, entry->val, version);
            if (!policy_.vclaim_mark_dead(entry->val, version, cur, entry->dead)) {
                if (policy_.flag_load(entry->dead)) return false;  // racer claimed it
                continue;  // a write moved the value under us; re-decide
            }
            // cur stays protected in slot 3 (the claim retires, never frees,
            // under a live protection), so the expiry check below is safe.
            bucket.help_unlink(g, key);  // eager physical removal
            stats_.local().erases.fetch_add(1, std::memory_order_relaxed);
            return cur != nullptr && !expired(cur, now_ns);
        }
    }

    // ---- maintenance ---------------------------------------------------

    /// Eagerly clear every expired value (version-tied, so racing fresh
    /// puts survive), then drive the policy's deferred reclamation so the
    /// cleared boxes actually leave the heap. Returns the number of values
    /// expired by this call.
    std::size_t sweep_expired(std::uint64_t now_ns, int flush_rounds = 16) {
        std::size_t cleared = 0;
        for (std::size_t b = 0; b < buckets_.size(); ++b) {
            typename policy_t::guard g(policy_);
            buckets_[b].for_each(g, [&](entry_t& entry) {
                std::uint64_t version = 0;
                box_t* box = g.template vtraverse<box_t>(3, entry.val, version);
                if (box == nullptr || !expired(box, now_ns)) return;
                if (!g.upgrade(1)) return;  // entry being destroyed
                if (lazy_expire(g, &entry, now_ns)) ++cleared;
            });
        }
        policy_.drain(flush_rounds);
        return cleared;
    }

    /// Graceful shutdown: sever every bucket chain and drain the policy.
    /// Returns the residual pending count (0 = fully quiesced; nonzero
    /// means a pin/hazard elsewhere is still held). Writers must be
    /// quiesced first (clear() contract).
    std::uint64_t drain(int flush_rounds = 64) {
        buckets_.clear();
        return policy_.drain(flush_rounds);
    }

    // ---- introspection -------------------------------------------------

    /// Live, unexpired entries. Exact only at quiescence.
    std::size_t size(std::uint64_t now_ns = 0) {
        std::size_t n = 0;
        for (std::size_t b = 0; b < buckets_.size(); ++b) {
            typename policy_t::guard g(policy_);
            buckets_[b].for_each(g, [&](entry_t& entry) {
                std::uint64_t version = 0;
                box_t* box = g.template vtraverse<box_t>(3, entry.val, version);
                if (box != nullptr && !expired(box, now_ns)) ++n;
            });
        }
        return n;
    }

    /// The policy instance this store's guards must come from. The net
    /// server uses it to hold one outer guard across a whole event-loop
    /// tick (per-op guards nest inside it), amortizing the pin/flush cost
    /// over the batch. Only meaningful for policies with re-entrant guards
    /// (counted, borrowed, ebr, deferred, leaky — not hp, whose per-thread
    /// hazard slots forbid nesting).
    policy_t& policy() noexcept { return policy_; }

    std::size_t shard_count() const noexcept { return shard_mask_ + 1; }
    std::size_t bucket_count() const noexcept { return buckets_.size(); }

    /// The reclamation backlog attributable to this store's policy (global
    /// per scheme, not per store — comparable across stores of one policy
    /// only when others are quiescent).
    std::uint64_t reclaimer_pending() const noexcept { return policy_.pending(); }

    static constexpr const char* policy_name() noexcept { return policy_t::name(); }

    /// Sum of the per-thread-slot counter stripes. Exact at quiescence.
    store_stats stats() const {
        store_stats total;
        stats_.for_each([&total](const stats_stripe& st) {
            total.gets += st.gets.load(std::memory_order_relaxed);
            total.hits += st.hits.load(std::memory_order_relaxed);
            total.puts += st.puts.load(std::memory_order_relaxed);
            total.erases += st.erases.load(std::memory_order_relaxed);
            total.cas_ok += st.cas_ok.load(std::memory_order_relaxed);
            total.cas_fail += st.cas_fail.load(std::memory_order_relaxed);
            total.expired += st.expired.load(std::memory_order_relaxed);
        });
        return total;
    }

  private:
    /// The value cell: an immutable payload plus its expiry deadline. A
    /// leaf of the ownership graph — entries point at boxes, never back.
    struct box_t : policy_t::template node_base<box_t> {
        Value payload;
        std::uint64_t expires_at_ns;  ///< 0 = never expires

        box_t(Value v, std::uint64_t dl) : payload(std::move(v)), expires_at_ns(dl) {}

        static constexpr std::size_t smr_link_count = 0;
        template <typename F>
        void smr_children(F&&) {}
    };
    static_assert(lfrc::smr::detail::children_cover_all_links_v<box_t>,
                  "box_t must declare smr_link_count and a visitable "
                  "smr_children enumeration");

    /// A key's slot in its bucket list: the list_core node contract
    /// (next/dead/key) plus the versioned value field. A bucket walk reads
    /// `key` and `next` of every entry it passes, so they sit side by side
    /// and share a cache line for all but a few entry placements.
    struct entry_t : policy_t::template node_base<entry_t> {
        Key key{};
        typename policy_t::template link<entry_t> next;
        typename policy_t::flag dead;
        typename policy_t::template vslot<box_t> val;

        explicit entry_t(Key k) : key(std::move(k)) {}

        static constexpr std::size_t smr_link_count = 2;
        template <typename F>
        void smr_children(F&& f) {
            f(next);
            f(val);
        }

        /// Quiescent-teardown hook (manual policies' reset_chain): the value
        /// box is a satellite allocation the chain walk cannot see.
        void smr_dispose() {
            if constexpr (!policy_t::counted_links) delete val.exclusive_get();
        }
    };
    static_assert(lfrc::smr::detail::children_cover_all_links_v<entry_t>,
                  "entry_t must declare smr_link_count and a visitable "
                  "smr_children enumeration");

  public:
    /// The per-key node, named for layout checks: the arena size class an
    /// entry lands in is most of a loaded store's footprint.
    using entry_type = entry_t;

  private:
    using bucket_t = containers::list_core<policy_t, entry_t>;

    struct stats_stripe {
        std::atomic<std::uint64_t> gets{0};
        std::atomic<std::uint64_t> hits{0};
        std::atomic<std::uint64_t> puts{0};
        std::atomic<std::uint64_t> erases{0};
        std::atomic<std::uint64_t> cas_ok{0};
        std::atomic<std::uint64_t> cas_fail{0};
        std::atomic<std::uint64_t> expired{0};
    };

    static std::size_t pow2_at_least(std::size_t n) noexcept {
        std::size_t p = 1;
        while (p < n) p <<= 1;
        return p;
    }

    static bool expired(const box_t* box, std::uint64_t now_ns) noexcept {
        return box->expires_at_ns != 0 && box->expires_at_ns <= now_ns;
    }

    static std::uint64_t deadline(std::uint64_t ttl_ns, std::uint64_t now_ns) noexcept {
        return ttl_ns == 0 ? 0 : now_ns + ttl_ns;
    }

    /// Strong lookup via the helping search: the live entry, protected in
    /// slot 1, or null.
    entry_t* find_strong(typename policy_t::guard& g, bucket_t bucket, const Key& key) {
        auto pos = bucket.search(g, key);
        return (pos.curr != nullptr && pos.curr->key == key) ? pos.curr : nullptr;
    }

    /// Clear an expired value through a version-tied install of null.
    /// Requires `entry` strongly protected (writing an object's cells
    /// requires a write license — docs/ALGORITHMS.md §8). Returns true when
    /// this call did the clearing.
    bool lazy_expire(typename policy_t::guard& g, entry_t* entry, std::uint64_t now_ns) {
        std::uint64_t version = 0;
        box_t* cur = g.template vprotect<box_t>(3, entry->val, version);
        if (cur == nullptr || !expired(cur, now_ns)) return false;  // racer acted
        if (!policy_.vinstall_if_live(entry->val, version, cur,
                                      static_cast<box_t*>(nullptr), entry->dead)) {
            return false;  // racing put/erase acted first; nothing to clear
        }
        stats_.local().expired.fetch_add(1, std::memory_order_relaxed);
        return true;
    }

    bucket_t bucket_for(const Key& key) {
        // Shard index consumes the low bits; buckets key off the high ones.
        const std::uint64_t h = util::mix64(hasher_(key));
        return buckets_[util::low_index(h, shard_mask_) * buckets_per_shard_ +
                        util::high_index(h, buckets_per_shard_)];
    }

    Hash hasher_;
    policy_t policy_{};
    std::size_t shard_mask_;
    std::size_t buckets_per_shard_;
    containers::list_heads<policy_t, entry_t> buckets_;
    util::slot_striped<stats_stripe> stats_;
};

}  // namespace lfrc::store
