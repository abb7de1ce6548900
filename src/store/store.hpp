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
//   sharding      N power-of-two shards of B level-0 buckets, each a
//                 containers::list_core chain (the DCAS-deletion list
//                 protocol), so contention and chain length shrink by
//                 shards × buckets. The level-0 heads are one contiguous
//                 list_heads array, shard-major (shard s owns heads
//                 [s·B, (s+1)·B)): a bucket is a 16-byte inline head, with
//                 no sentinel node and no per-bucket heap object.
//   growth        split-ordered (Shalev & Shavit, JACM 2006), without bit
//                 reversal: a chain is sorted by the key's util::mix64
//                 image, and a sub-bucket is a prefix range of that image.
//                 When the live entries pass grow_load per bucket, the
//                 number of sub-buckets per chain doubles. A sub-bucket is
//                 anchored by a permanent dummy entry whose key is the
//                 range's boundary: the first writer into it inserts the
//                 dummy with get_or_insert, then publishes it with cas_link
//                 into an append-only segment table. Readers start from the
//                 nearest published anchor at or before their key and never
//                 create one. No node ever moves, so a lazy reader part-way
//                 through a chain never misses a key (DESIGN.md §9).
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
//   shutdown      drain() clears every anchor link, severs every level-0
//                 chain and drives the policy's bounded drain to completion.
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

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <type_traits>
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

/// Keys are integers of at most 64 bits: an entry keeps the key's mix64
/// image (a bijection) in its key slot, which orders its chain.
template <typename Policy, typename Key, typename Value>
class kv_store {
  public:
    using policy_t = Policy;
    static_assert(lfrc::smr::policy<policy_t>);
    static_assert(std::is_integral_v<Key> && sizeof(Key) <= sizeof(std::uint64_t),
                  "kv_store keys are integers of at most 64 bits");

    struct config {
        std::size_t shards = 8;             ///< rounded up to a power of two
        std::size_t buckets_per_shard = 64; ///< the starting size; the index grows
    };

    /// Live entries per bucket past which the index doubles.
    static constexpr std::size_t grow_load = 8;
    /// Doublings the index can take: at most 2^max_level sub-buckets per
    /// level-0 bucket.
    static constexpr unsigned max_level = 32;

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
          chains_(policy_, (shard_mask_ + 1) * buckets_per_shard_) {}

    /// Anchor links go first: under the counted policies each holds a
    /// reference on its dummy, which the chain teardown would not release.
    ~kv_store() { release_anchors(); }

    kv_store(const kv_store&) = delete;
    kv_store& operator=(const kv_store&) = delete;

    // ---- reads ---------------------------------------------------------

    /// Fast-path read on the policy's lazy traverse grade (for `borrowed`:
    /// one epoch pin, zero refcount traffic). An expired value reads as a
    /// miss and is lazily cleared (version-tied, so the clear can never
    /// race out a fresh put).
    std::optional<Value> get(const Key& key, std::uint64_t now_ns = 0) {
        stats_stripe& st = stats_.local();
        bump(st.gets);
        typename policy_t::guard g(policy_);
        const std::uint64_t h = image(key);
        entry_t* entry = reader_view(h).find(g, probe{h, false});
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
        bump(st.hits);
        return box->payload;
    }

    /// The same read through the strong (helping) search and a strong
    /// value protection: the workload driver's "counted" axis on counted
    /// policies, and the store's only fully-helping read path.
    std::optional<Value> get_counted(const Key& key, std::uint64_t now_ns = 0) {
        stats_stripe& st = stats_.local();
        bump(st.gets);
        typename policy_t::guard g(policy_);
        const std::uint64_t h = image(key);
        entry_t* entry = find_strong(g, reader_view(h), h);
        if (entry == nullptr) return std::nullopt;
        std::uint64_t version = 0;
        box_t* box = g.template vprotect<box_t>(3, entry->val, version);
        if (box == nullptr) return std::nullopt;
        if (expired(box, now_ns)) {
            lazy_expire(g, entry, now_ns);
            return std::nullopt;
        }
        bump(st.hits);
        return box->payload;
    }

    /// Read returning the value-slot version alongside the value; the
    /// version feeds a later cas(). Absent keys report version 0.
    versioned get_versioned(const Key& key, std::uint64_t now_ns = 0) {
        stats_stripe& st = stats_.local();
        bump(st.gets);
        typename policy_t::guard g(policy_);
        const std::uint64_t h = image(key);
        entry_t* entry = reader_view(h).find(g, probe{h, false});
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
        bump(st.hits);
        return versioned{true, box->payload, version};
    }

    // ---- writes --------------------------------------------------------

    /// Unconditional upsert. `ttl_ns` of 0 means the value never expires;
    /// otherwise it expires at now_ns + ttl_ns.
    void put(const Key& key, Value value, std::uint64_t ttl_ns = 0,
             std::uint64_t now_ns = 0) {
        bump(stats_.local().puts);
        typename policy_t::guard g(policy_);
        auto box = policy_.template make_owner<box_t>(std::move(value),
                                                      deadline(ttl_ns, now_ns));
        const std::uint64_t h = image(key);
        bucket_t bucket = writer_view(g, h);
        for (;;) {
            auto [entry, inserted] = bucket.get_or_insert(
                g, probe{h, false}, [&] { return policy_.template make_owner<entry_t>(h); });
            if (inserted) note_inserted();
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
        const std::uint64_t h = image(key);
        bucket_t bucket = writer_view(g, h);
        for (;;) {
            auto [entry, inserted] = bucket.get_or_insert(
                g, probe{h, false}, [&] { return policy_.template make_owner<entry_t>(h); });
            if (inserted) note_inserted();
            while (!policy_.flag_load(entry->dead)) {
                std::uint64_t version = 0;
                box_t* cur = g.template vprotect<box_t>(3, entry->val, version);
                if (policy_.flag_load(entry->dead)) break;  // frozen slot
                if (version != expected_version) {
                    bump(stats_.local().cas_fail);
                    return false;
                }
                if (policy_.vinstall_if_live(entry->val, version, cur, box.get(),
                                             entry->dead)) {
                    bump(stats_.local().cas_ok);
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
        const std::uint64_t h = image(key);
        bucket_t bucket = reader_view(h);
        for (;;) {
            entry_t* entry = find_strong(g, bucket, h);
            if (entry == nullptr) return false;
            std::uint64_t version = 0;
            box_t* cur = g.template vprotect<box_t>(3, entry->val, version);
            if (!policy_.vclaim_mark_dead(entry->val, version, cur, entry->dead)) {
                if (policy_.flag_load(entry->dead)) return false;  // racer claimed it
                continue;  // a write moved the value under us; re-decide
            }
            // cur is still protected in slot 3 (the claim retires, never
            // frees, under a live protection); read it before the unlink's
            // search, whose order hook may take slot 3.
            const bool removed = cur != nullptr && !expired(cur, now_ns);
            bucket.help_unlink(g, probe{h, false});  // eager physical removal
            stats_stripe& st = stats_.local();
            bump(st.erases);
            bump(st.live, std::int64_t{-1});
            return removed;
        }
    }

    // ---- maintenance ---------------------------------------------------

    /// Eagerly clear every expired value (version-tied, so racing fresh
    /// puts survive), then drive the policy's deferred reclamation so the
    /// cleared boxes actually leave the heap. Returns the number of values
    /// expired by this call.
    std::size_t sweep_expired(std::uint64_t now_ns, int flush_rounds = 16) {
        std::size_t cleared = 0;
        for (std::size_t c = 0; c < chains_.size(); ++c) {
            typename policy_t::guard g(policy_);
            chains_[c].for_each(g, [&](entry_t& entry) {
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

    /// Graceful shutdown: clear the anchor links, sever every level-0
    /// chain and drain the policy. Returns the residual pending count (0 =
    /// fully quiesced; nonzero means a pin/hazard elsewhere is still held).
    /// Writers must be quiesced first (clear() contract). The index keeps
    /// its grown size.
    std::uint64_t drain(int flush_rounds = 64) {
        release_anchors();
        chains_.clear();
        return policy_.drain(flush_rounds);
    }

    // ---- introspection -------------------------------------------------

    /// Live, unexpired entries. Exact only at quiescence.
    std::size_t size(std::uint64_t now_ns = 0) {
        std::size_t n = 0;
        for (std::size_t c = 0; c < chains_.size(); ++c) {
            typename policy_t::guard g(policy_);
            chains_[c].for_each(g, [&](entry_t& entry) {
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
    /// The configured level-0 buckets times the current sub-buckets per
    /// bucket: grows as the store fills, never shrinks.
    std::size_t bucket_count() const noexcept {
        return chains_.size() << level_.load(std::memory_order_acquire);
    }

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

    /// What a walk looks for: a key's image, and whether it is the dummy
    /// anchoring the sub-bucket that starts at that image.
    struct probe {
        std::uint64_t image;
        bool anchor;
    };

    /// A key's slot in its bucket list: the list_core node contract
    /// (next/dead/key) plus the versioned value field. A bucket walk reads
    /// `key` and `next` of every entry it passes, so they sit side by side
    /// and share a cache line for all but a few entry placements. A dummy
    /// anchor is an entry too: its key is its sub-bucket's boundary.
    struct entry_t : policy_t::template node_base<entry_t> {
        std::uint64_t key;  ///< the key's mix64 image, or an anchor's boundary
        typename policy_t::template link<entry_t> next;
        typename policy_t::flag dead;
        typename policy_t::template vslot<box_t> val;

        explicit entry_t(std::uint64_t k) : key(k) {}

        /// list_core's ordering hook. Chains sort by image, and a dummy
        /// sorts just before an entry with its image. Only an image whose
        /// low bits are zero can be a boundary, so only such a tie reads
        /// the node's anchor mark (in guard slot 3).
        int order(policy_t& p, typename policy_t::guard& g, const probe& k) {
            if (key != k.image) return key < k.image ? -1 : 1;
            if ((key & (~std::uint64_t{0} >> max_level)) != 0) return 0;
            const bool anchor = is_anchor(p, g);
            if (anchor == k.anchor) return 0;
            return anchor ? -1 : 1;
        }

        /// The anchor mark: a value slot at version 1 holding nothing, on
        /// a node that is not dead. No live entry shows it — put and cas
        /// install a box, an expiry clears only a box (to version >= 2),
        /// and an erase claim marks the entry dead in the same CASN — so
        /// the slot is read before the flag.
        bool is_anchor(policy_t& p, typename policy_t::guard& g) {
            std::uint64_t version = 0;
            const bool empty = g.template vtraverse<box_t>(3, val, version) == nullptr;
            return empty && version == 1 && !p.flag_load(dead);
        }

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
    /// The per-key node and its value box, named for layout checks: the
    /// arena size classes they land in are most of a loaded store's
    /// footprint.
    using entry_type = entry_t;
    using box_type = box_t;

#if defined(LFRC_ENABLE_MUTATIONS)
    /// Seeded growth bug for mutation testing (tests/sim/sim_store_growth_
    /// test): when set, a writer publishes a new dummy in the segment table
    /// before the DCAS that links it into its chain.
    static std::atomic<bool>& mutate_publish_before_link() noexcept {
        static std::atomic<bool> flag{false};
        return flag;
    }
#endif

  private:
    using bucket_t = containers::list_core<policy_t, entry_t>;
    using link_t = typename policy_t::template link<entry_t>;

    /// Each slot's stripe: only the owning slot writes it (bump below).
    /// `live` counts entries inserted minus entries claimed by this slot;
    /// it is signed because a slot may claim entries another inserted.
    struct stats_stripe {
        std::atomic<std::uint64_t> gets{0};
        std::atomic<std::uint64_t> hits{0};
        std::atomic<std::uint64_t> puts{0};
        std::atomic<std::uint64_t> erases{0};
        std::atomic<std::uint64_t> cas_ok{0};
        std::atomic<std::uint64_t> cas_fail{0};
        std::atomic<std::uint64_t> expired{0};
        std::atomic<std::int64_t> live{0};
    };

    /// Owner-only counter update: a load and a store, no locked RMW.
    template <typename T>
    static void bump(std::atomic<T>& c, T d = 1) noexcept {
        c.store(c.load(std::memory_order_relaxed) + d, std::memory_order_relaxed);
    }

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

    static std::uint64_t image(const Key& key) noexcept {
        return util::mix64(static_cast<std::uint64_t>(key));
    }

    /// Strong lookup via the helping search: the live entry, protected in
    /// slot 1, or null.
    entry_t* find_strong(typename policy_t::guard& g, bucket_t bucket, std::uint64_t h) {
        auto pos = bucket.search(g, probe{h, false});
        return pos.match ? pos.curr : nullptr;
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
        bump(stats_.local().expired);
        return true;
    }

    // ---- the index -----------------------------------------------------

    /// The level-0 chain of image h. The shard takes the low bits, the
    /// bucket bits 32 and up; sub-buckets split a chain by the top bits.
    std::size_t chain_of(std::uint64_t h) const noexcept {
        return util::low_index(h, shard_mask_) * buckets_per_shard_ +
               util::high_index(h, buckets_per_shard_);
    }

    /// Sub-bucket j's anchor link (j > 0) in chain c, the index at `level`
    /// being the top `level` bits of the image. Segment s holds the
    /// boundaries that appeared at level s — the odd j at that level.
    link_t& anchor_link(std::size_t c, unsigned level, std::uint64_t j) noexcept {
        const auto t = static_cast<unsigned>(std::countr_zero(j));
        const unsigned s = level - t;
        return segments_[s].load(std::memory_order_acquire)[(c << (s - 1)) + (j >> (t + 1))];
    }

    /// A view of chain c from the nearest published anchor at or before
    /// sub-bucket j: j itself, then each ancestor (j with its lowest set bit
    /// cleared), down to the head.
    bucket_t published_view(std::size_t c, unsigned level, std::uint64_t j) {
        for (; j != 0; j &= j - 1) {
            link_t& l = anchor_link(c, level, j);
            if (policy_.peek(l) != nullptr) return chains_.chain(c, &l);
        }
        return chains_[c];
    }

    /// Where a reader (or an eraser) of image h starts. Readers never
    /// create anchors.
    bucket_t reader_view(std::uint64_t h) {
        const std::size_t c = chain_of(h);
        const unsigned level = level_.load(std::memory_order_acquire);
        if (level == 0) return chains_[c];
        return published_view(c, level, h >> (64 - level));
    }

    /// Where a writer of image h starts: its own sub-bucket's anchor. The
    /// first writer into a sub-bucket inserts the dummy from the nearest
    /// published ancestor, and publishes it only after the DCAS that
    /// linked it: a walk from an anchor must see the whole chain past it.
    bucket_t writer_view(typename policy_t::guard& g, std::uint64_t h) {
        const std::size_t c = chain_of(h);
        const unsigned level = level_.load(std::memory_order_acquire);
        const std::uint64_t j = level == 0 ? 0 : h >> (64 - level);
        if (j == 0) return chains_[c];
        link_t& own = anchor_link(c, level, j);
        if (policy_.peek(own) == nullptr) {
            const std::uint64_t boundary = j << (64 - level);
            entry_t* dummy = published_view(c, level, j & (j - 1))
                .get_or_insert(g, probe{boundary, true}, [&] {
                    auto fresh = make_anchor(boundary);
#if defined(LFRC_ENABLE_MUTATIONS)
                    if (mutate_publish_before_link().load(std::memory_order_relaxed)) {
                        policy_.cas_link(own, static_cast<entry_t*>(nullptr), fresh.get());
                    }
#endif
                    return fresh;
                })
                .first;
            // A racer that lost this CAS publishes the same dummy: a chain
            // holds one dummy per boundary, and dummies are never removed.
            policy_.cas_link(own, static_cast<entry_t*>(nullptr), dummy);
        }
        return chains_.chain(c, &own);
    }

    /// A fresh dummy carrying the anchor mark (entry_t::is_anchor), set by
    /// one install while the node is still private.
    auto make_anchor(std::uint64_t boundary) {
        auto dummy = policy_.template make_owner<entry_t>(boundary);
        policy_.vinstall_if_live(dummy->val, 0, static_cast<box_t*>(nullptr),
                                 static_cast<box_t*>(nullptr), dummy->dead);
        return dummy;
    }

    /// After an insert: count it, and whenever this slot's own count
    /// reaches a multiple of `step` (an eighth of the buckets, as a power
    /// of two) compare the summed count with the grow threshold. A slot
    /// adds fewer than `step` live entries between two of its checks, so
    /// the store passes its threshold by at most threads × step — threads/64
    /// of it — before a doubling.
    void note_inserted() {
        std::atomic<std::int64_t>& live = stats_.local().live;
        const std::int64_t mine = live.load(std::memory_order_relaxed) + 1;
        live.store(mine, std::memory_order_relaxed);
        unsigned level = level_.load(std::memory_order_acquire);
        const std::size_t step = std::bit_floor(std::max<std::size_t>(
            (chains_.size() << level) / grow_load, 1));
        if ((static_cast<std::uint64_t>(mine) & (step - 1)) != 0) return;
        std::int64_t total = 0;
        stats_.for_each([&total](const stats_stripe& st) {
            total += st.live.load(std::memory_order_relaxed);
        });
        while (level < max_level &&
               total > static_cast<std::int64_t>(grow_load * (chains_.size() << level))) {
            grow(level);
            level = level_.load(std::memory_order_acquire);
        }
    }

    /// Double the sub-buckets: publish segment level+1 (all links empty),
    /// then move the level. A racer's segment loses the CAS and is freed;
    /// a published one is never copied or moved.
    void grow(unsigned level) {
        const unsigned s = level + 1;
        if (segments_[s].load(std::memory_order_acquire) == nullptr) {
            auto seg = std::make_unique<link_t[]>(chains_.size() << level);
            link_t* expected = nullptr;
            if (segments_[s].compare_exchange_strong(expected, seg.get())) {
                segment_owners_[s] = std::move(seg);
            }
        }
        level_.compare_exchange_strong(level, s);
    }

    /// Quiescent: empty every anchor link. Under the counted policies
    /// that drops each link's reference on its dummy; the dummies
    /// themselves leave with their level-0 chains.
    void release_anchors() {
        const unsigned level = level_.load(std::memory_order_acquire);
        for (unsigned s = 1; s <= level; ++s) {
            link_t* seg = segments_[s].load(std::memory_order_acquire);
            for (std::size_t i = 0; i < (chains_.size() << (s - 1)); ++i) {
                if (entry_t* dummy = policy_.peek(seg[i])) {
                    policy_.cas_link(seg[i], dummy, static_cast<entry_t*>(nullptr));
                }
            }
        }
    }

    policy_t policy_{};
    std::size_t shard_mask_;
    std::size_t buckets_per_shard_;
    containers::list_heads<policy_t, entry_t> chains_;  ///< level 0
    std::atomic<unsigned> level_{0};                     ///< doublings so far
    /// segments_[s] (s >= 1): chains × 2^(s-1) anchor links, published
    /// before level_ reaches s; segment_owners_ frees them.
    std::atomic<link_t*> segments_[max_level + 1] = {};
    std::unique_ptr<link_t[]> segment_owners_[max_level + 1];
    util::slot_striped<stats_stripe> stats_;
};

}  // namespace lfrc::store
