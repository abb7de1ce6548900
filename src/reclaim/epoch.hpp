// Epoch-based reclamation (EBR).
//
// Two roles in this repo:
//  1. A comparator reclamation scheme for the GC-dependent container
//     baselines (smr::ebr, experiment E5) — retire-on-unlink, free after a
//     grace period.
//  2. The grace period, and the one retire queue, behind the other
//     epoch-pinned paths: the LFRC domain defers each object's physical
//     free through it (a DCAS helper may still touch the cells of an
//     object whose count just reached zero), borrowed and deferred guards
//     pin it for their reads, and smr::deferred retires each node whose
//     count reaches zero into it, with the per-node review as the deleter.
//     A review may free a node whose released children reach zero in
//     turn, so a deleter may retire; drain() chases such cascades. The
//     DCAS engine's descriptors are permanent per-thread storage and never
//     pass through here.
//
// Protocol (classic three-epoch scheme):
//  * A thread entering a critical section announces the current global
//    epoch in its registry slot, then re-validates the global epoch
//    (announce/validate loop). This bounds the lag of any active thread to
//    at most one epoch behind the global.
//  * try_advance() bumps the global epoch only when every active thread has
//    announced the current one.
//  * An object retired at epoch r is freed once global >= r + 3. (r + 2 is
//    the textbook bound; the extra epoch is a deliberate safety margin —
//    reclaiming later is always sound.)
//
// Retired objects go on per-slot lock-free Treiber stacks. Any thread may
// *steal* a slot's whole stack with an atomic exchange, free the eligible
// entries, and push the remainder onto its own stack — so nodes retired by
// exited threads are eventually drained, and `drain()` lets quiescent
// tests flush everything. Each 32-B retire record comes through the same
// allocation seam as the nodes, uncounted (alloc::storage_base): the
// arena's 48-B class, so a magazine hit keeps the retire path off shared
// state, and a record freed by another slot's drain goes home through the
// arena's remote list.
//
// Progress note (matches DESIGN.md §2): all operations here are lock-free,
// but a thread parked *inside* a critical section stalls epoch advance and
// therefore reclamation. Memory grows; nobody blocks.
#pragma once

#include <atomic>
#include <cstdint>

#include "alloc/counted.hpp"
#include "sim/instrumented.hpp"
#include "util/cacheline.hpp"
#include "util/thread_registry.hpp"

namespace lfrc::reclaim {

class epoch_domain {
  public:
    epoch_domain() = default;
    epoch_domain(const epoch_domain&) = delete;
    epoch_domain& operator=(const epoch_domain&) = delete;
    ~epoch_domain();

    /// RAII critical-section pin. Re-entrant (nested guards are cheap).
    class guard {
      public:
        explicit guard(epoch_domain& d) noexcept : domain_(d) { domain_.enter(); }
        ~guard() { domain_.exit(); }
        guard(const guard&) = delete;
        guard& operator=(const guard&) = delete;

      private:
        epoch_domain& domain_;
    };

    void enter() noexcept;
    void exit() noexcept;

    /// Hand an unlinked object to the domain; `deleter(object)` runs after
    /// the grace period. Must be called by a thread (typically inside a
    /// guard, but that is not required for safety of the domain itself).
    void retire(void* object, void (*deleter)(void*));

    template <typename T>
    void retire(T* object) {
        retire(object, [](void* p) { delete static_cast<T*>(p); });
    }

    /// Attempt one epoch advance; returns true if the epoch moved.
    bool try_advance() noexcept;

    /// One reclaim pass: drain every slot's retire stack as far as grace
    /// periods allow. Safe concurrently. Returns the number of records whose
    /// deleter ran (a deleter may retire again, so this is not the fall in
    /// pending()).
    std::size_t drain_all();

    /// Drive the retired records to their frees: the one drain loop behind
    /// lfrc::flush_deferred_frees and every smr policy's drain(). Call at
    /// quiescence (tests, teardown, footprint sampling); concurrent use is
    /// safe but may not reach zero while other threads pin epochs. Returns
    /// the residual pending count: 0 means every retired record was freed.
    ///
    /// Bounded two ways. `rounds` caps the work at rounds × cascade_passes
    /// passes: a freed record's deleter may retire its children
    /// (smr::deferred), which free grace_epochs later, so a chain of N
    /// levels needs a few passes per level while pending() stays level.
    /// And the loop gives up once grace_epochs + 1 passes in a row ran no
    /// deleter: at quiescence each pass moves the epoch, so a record waits
    /// fewer passes than that, and a longer wait means a pin is holding the
    /// epoch (or another thread holds the record) and more passes cannot
    /// help.
    std::uint64_t drain(int rounds);

    /// Forcibly un-pin a slot: reset nesting depth and announced state.
    /// For virtual-thread harnesses (src/sim) that abandon a fiber mid
    /// critical section — the harness guarantees the abandoned fiber never
    /// runs again, so dropping its pin is the moral equivalent of the
    /// thread-exit quiescence the destructor comment relies on. Never call
    /// this for a slot whose owner may still execute.
    void clear_slot(std::size_t s) noexcept;

    /// Batch clear_slot for the joined-worker teardown idiom shared by the
    /// workload driver and the net server: each worker records its slot
    /// index before the join; after the join the slots can never run again,
    /// so clearing them releases any pins the vanished threads held (their
    /// thread_local destructors ran, but a worker parked inside a guard at
    /// join time would otherwise stall the epoch forever). Same legality
    /// contract as clear_slot, per entry.
    void clear_slots(const std::size_t* slots, std::size_t n) noexcept;

    /// True when no slot is currently pinned. A quiescent observation is
    /// only meaningful to callers that already know no thread is about to
    /// pin (teardown, joined-worker drains); it is advisory, not a fence.
    bool quiescent() const noexcept;

    /// Auxiliary per-slot state hook: invoked by clear_slot(s), while the
    /// slot still counts as pinned, so a scheme layered on this domain's
    /// epochs (smr::deferred's delta tables) can flush an abandoned slot's
    /// state. Must be callable from any thread. One registrant; a second
    /// registration asserts rather than silently replacing the first.
    void register_aux(void (*clear_slot_fn)(std::size_t) noexcept) noexcept;

    /// Engine-local per-slot state hook: invoked by clear_slot(s) so a DCAS
    /// engine with permanent per-slot descriptors (dcas::mcas_engine) can
    /// invalidate the abandoned slot's descriptors — bump their sequences so
    /// stale helpers cannot complete them. Deliberately separate from
    /// register_aux, which is already taken by smr::deferred. One
    /// registrant; a second registration asserts.
    void register_slot_reset(void (*fn)(std::size_t) noexcept) noexcept;

    std::uint64_t global_epoch() const noexcept {
        return global_epoch_->load(std::memory_order_acquire);  // lfrc-lint: order(unpaired-epoch-read)
    }

    /// Retired-but-not-yet-freed objects (approximate under concurrency).
    std::uint64_t pending() const noexcept;

    /// Domain used for MCAS descriptors and anything else process-wide.
    static epoch_domain& global();

  private:
    // Uncounted: records are the domain's bookkeeping, not application
    // objects, so they stay out of alloc::live_objects()/live_bytes().
    struct retired_node : alloc::storage_base {
        retired_node* next;
        std::uint64_t epoch;
        void* object;
        void (*deleter)(void*);
    };

    struct slot_record {
        // Bit 0: active flag; bits 1..: announced epoch. Instrumented: the
        // announce/validate handshake with try_advance is exactly the race
        // the sim scheduler must be able to interleave.
        sim::instrumented_atomic<std::uint64_t> state{0};
        // Owner-only nesting depth (never touched by other threads).
        std::uint64_t depth = 0;
        // Owner pushes; anyone may steal the whole stack via exchange.
        std::atomic<retired_node*> retired{nullptr};
        // Owner-only counter driving periodic reclamation.
        std::uint64_t retires_since_scan = 0;
        // Owner-only latch, set while this slot's thread runs deleters: a
        // retire from inside a deleter (a deferred review releasing its
        // children) must not start a nested scan.
        bool reclaiming = false;
        // Epoch at the last reclamation attempt (advisory; races with
        // drain_all are harmless). If the global epoch has not moved since,
        // nothing new can be eligible and the scan is skipped — without
        // this, a peer parked inside a guard makes every scan an O(pending)
        // walk that frees nothing (quadratic in the stall length).
        std::atomic<std::uint64_t> last_scan_epoch{0};
        // Per-slot pending delta; pending() sums across slots. Avoids a
        // process-wide contended counter on the retire path.
        std::atomic<std::int64_t> pending_delta{0};
    };

    static constexpr std::uint64_t grace_epochs = 3;
    static constexpr std::uint64_t scan_threshold = 64;
    static constexpr std::uint64_t cascade_passes = 4096;  // drain() passes per round

    void push_retired_chain(std::size_t slot, retired_node* chain_head) noexcept;
    std::size_t reclaim_some(std::size_t slot, bool force);
    /// Frees eligible entries of a stolen list; returns the survivors and
    /// adds the number freed to `freed`.
    retired_node* free_eligible(retired_node* head, std::uint64_t eligible_before,
                                std::size_t& freed);

    util::padded<sim::instrumented_atomic<std::uint64_t>> global_epoch_{std::uint64_t{1}};
    // Aux per-slot hook (register_aux). Null until a layered scheme
    // registers; checked with an acquire load in clear_slot.
    std::atomic<void (*)(std::size_t) noexcept> aux_clear_slot_{nullptr};
    // Engine per-slot reset hook (register_slot_reset).
    std::atomic<void (*)(std::size_t) noexcept> slot_reset_{nullptr};
    util::padded<slot_record> slots_[util::thread_registry::max_threads];
};

}  // namespace lfrc::reclaim
