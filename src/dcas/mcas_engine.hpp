// Lock-free DCAS emulation: Harris-style RDCSS + MCAS over *permanent*,
// sequence-tagged descriptors ("Reuse, don't Recycle", Arbel-Raviv & Brown).
//
// This engine realizes the hardware DCAS the paper assumes (§1, citing the
// 68020 CAS2) in portable C++ atomics, preserving lock-free progress:
//
//  * dcas/casn fill an MCAS descriptor with its entries sorted by cell
//    address, then "help" it to completion. Installation of the descriptor
//    into each cell is mediated by RDCSS (restricted double-compare single-
//    swap), which atomically checks that the MCAS is still UNDECIDED while
//    swapping the descriptor in. Once every entry holds the descriptor the
//    status is CASed to SUCCEEDED; otherwise to FAILED; phase 2 unrolls each
//    entry to the new (or old) value.
//  * Any thread that encounters a descriptor while reading or CASing a cell
//    helps it finish first — that is where lock-freedom comes from: a
//    stalled operation can always be completed by its obstructor.
//
// Descriptor management (this is the part that differs from the classic
// allocate-and-retire construction the repo used through PR 6): every
// thread-registry slot owns a small fixed pool of descriptors that are
// *never freed*. A descriptor is named in a cell by a tagged word packing
// (slot, pool index, sequence number) — see cell.hpp — and its status word
// packs the same sequence next to the UNDECIDED/SUCCEEDED/FAILED state (the
// kcas.h idiom). Owners bump the sequence when they reuse a descriptor for
// a new operation; a helper re-validates the sequence after every read of a
// mutable descriptor word and abandons the help attempt on mismatch (the
// operation it was helping is necessarily already decided), re-reading the
// cell instead. Every CAS a helper performs embeds the sequence it started
// from — in the cell word or in the status word — so a stale helper's CAS
// can never take effect on a recycled descriptor's new operation.
//
// Consequences:
//  * dcas()/casn() perform zero allocations and zero epoch retirements;
//    the epoch-guard pin the old engine needed to keep helped descriptors
//    alive is gone from every public entry point. Helpers dereference only
//    permanent storage, so there is no reclamation to defer.
//  * A virtual-thread harness that abandons a slot mid-schedule must bump
//    that slot's descriptor sequences so stale helpers cannot complete them
//    (clear_slot below, wired into reclaim::epoch_domain::clear_slot).
//
// Why a stale helper cannot strand a cell: an owner only reuses a
// descriptor after its operation decided AND its own phase-2 unroll pass
// returned. Post-decision, the MCAS descriptor's tagged word can never be
// (re)installed into a cell — an RDCSS completing after the decision always
// restores the data value, because its control read (validated or not: a
// sequence mismatch implies "decided", owners only recycle terminal
// descriptors) observes a decided status. So once a helper's validation
// fails, the cell it came from has already been unrolled past the stale
// word, and re-reading it makes progress.
//
// A stale helper's own RDCSS word is another matter. A helper that
// validated before the decision and resumes after it still runs its RDCSS
// on a cell that holds the entry's expected value — an entry whose old and
// new values match (LFRCLoad's `next: P -> P`) or a value that came back —
// and that RDCSS installs its word there until its completion restores the
// value a few steps later. So even a thread that owns an object alone can
// find a descriptor word in its cells: every read goes through read()
// (every field's exclusive_get included, dcas/fields.hpp;
// tests/sim/sim_stale_helper_test stages the window).
//
// The address-ordering of entries prevents two overlapping operations from
// installing in opposite orders and repeatedly aborting each other.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>

#include "dcas/cell.hpp"
#include "reclaim/epoch.hpp"
#include "util/cacheline.hpp"
#include "util/slot_striped.hpp"
#include "util/thread_registry.hpp"

#if defined(LFRC_SIM)
#include "sim/runtime.hpp"
#endif

namespace lfrc::dcas {

class mcas_engine {
  public:
    static const char* name() noexcept { return "mcas"; }

    /// Observability counters (relaxed; for tests and benchmarks). Every
    /// list insert and unlink bumps two of them from every thread, so they
    /// are striped per registry slot; stats() sums the stripes into the
    /// calling thread's own copy and returns that, as of the call.
    struct counters {
        std::atomic<std::uint64_t> dcas_started{0};
        std::atomic<std::uint64_t> dcas_succeeded{0};
        std::atomic<std::uint64_t> helps{0};  // descriptor completions by non-owners
        std::atomic<std::uint64_t> seq_aborts{0};  // help attempts abandoned on a stale tag
    };

    static counters& stats() noexcept {
        thread_local counters total;
        std::uint64_t started = 0, succeeded = 0, helps = 0, aborts = 0;
        stripes().for_each([&](const counters& c) {
            started += c.dcas_started.load(std::memory_order_relaxed);  // lfrc-lint: order(unpaired-stats-counter)
            succeeded += c.dcas_succeeded.load(std::memory_order_relaxed);  // lfrc-lint: order(unpaired-stats-counter)
            helps += c.helps.load(std::memory_order_relaxed);  // lfrc-lint: order(unpaired-stats-counter)
            aborts += c.seq_aborts.load(std::memory_order_relaxed);  // lfrc-lint: order(unpaired-stats-counter)
        });
        total.dcas_started.store(started, std::memory_order_relaxed);  // lfrc-lint: order(unpaired-stats-counter)
        total.dcas_succeeded.store(succeeded, std::memory_order_relaxed);  // lfrc-lint: order(unpaired-stats-counter)
        total.helps.store(helps, std::memory_order_relaxed);  // lfrc-lint: order(unpaired-stats-counter)
        total.seq_aborts.store(aborts, std::memory_order_relaxed);  // lfrc-lint: order(unpaired-stats-counter)
        return total;
    }

#if defined(LFRC_ENABLE_MUTATIONS)
    /// Seeded reuse bug for mutation testing (tests/sim/sim_kcas_reuse_test):
    /// when set, the decision CAS trusts the *current* status word's sequence
    /// instead of the help ticket's — i.e. the helper skips the sequence
    /// re-validation between phase 1 and the decision, the classic
    /// recycled-descriptor completion bug this design exists to exclude.
    static std::atomic<bool>& mutate_strip_seq_validation() noexcept {
        static std::atomic<bool> flag{false};
        return flag;
    }
#endif

    static std::uint64_t read(cell& c) {
        for (;;) {
            const std::uint64_t v = c.raw().load(std::memory_order_seq_cst);
            if (!is_rdcss(v) && !is_mcas(v)) return v;
            resolve(v);
        }
    }

    static bool cas(cell& c, std::uint64_t expected, std::uint64_t desired) {
        assert(is_clean_value(expected) && is_clean_value(desired));
        for (;;) {
            std::uint64_t cur = c.raw().load(std::memory_order_seq_cst);
            if (is_rdcss(cur) || is_mcas(cur)) {
                resolve(cur);
                continue;
            }
            if (cur != expected) return false;
            if (c.raw().compare_exchange_strong(cur, desired, std::memory_order_seq_cst)) {
                return true;
            }
            // cur reloaded by the failed CAS; loop classifies it again.
        }
    }

    /// Generalized N-word CAS (Harris's full MCAS), N <= max_casn. The
    /// paper only needs N == 2, but the descriptor machinery generalizes
    /// for free and other DCAS-hungry algorithms want 3-4 words. Targets
    /// must be distinct cells; values must be clean (untagged).
    static constexpr std::size_t max_casn = 4;

    struct casn_op {
        cell* target;
        std::uint64_t expected;
        std::uint64_t desired;
    };

    static bool casn(casn_op* ops, std::size_t n) {
        assert(n >= 1 && n <= max_casn);
        if (n == 1) return cas(*ops[0].target, ops[0].expected, ops[0].desired);
        const std::uint64_t md_word = begin(ops, n);
        const bool ok = mcas_help(md_word, /*is_owner=*/true);
        release_mcas(md_word);
        return ok;
    }

    static bool dcas(cell& c0, cell& c1, std::uint64_t o0, std::uint64_t o1,
                     std::uint64_t n0, std::uint64_t n1) {
        assert(&c0 != &c1 && "DCAS on one cell twice is not defined");
        tick(&counters::dcas_started);
        casn_op ops[2] = {{&c0, o0, n0}, {&c1, o1, n1}};
        const bool ok = casn(ops, 2);
        if (ok) tick(&counters::dcas_succeeded);
        return ok;
    }

    /// Invalidate an abandoned slot's descriptors: bump every sequence so a
    /// stale helper still holding one of their tagged words can no longer
    /// read a consistent snapshot or land a CAS on them. Registered with
    /// reclaim::epoch_domain::clear_slot (the sim teardown path); callers
    /// must guarantee the slot's owner never runs again. On a non-failed
    /// teardown every descriptor must already be terminal — mid-operation
    /// state is only legal when the schedule was abandoned by a violation.
    static void clear_slot(std::size_t s) noexcept {
        slot_descriptors& sd = *table().slots[s];
        for (std::size_t i = 0; i < pool_size; ++i) {
            mcas_descriptor& d = sd.mcas[i];
            const std::uint64_t w = d.status.load(std::memory_order_seq_cst);
#if defined(LFRC_SIM)
            assert(state_of_status(w) != status_undecided || sim::failure_pending());
#else
            assert(state_of_status(w) != status_undecided &&
                   "clearing a slot whose descriptor is still mid-operation");
#endif
            d.status.store(pack_status(bump_seq(seq_of_status(w)), status_failed),
                           std::memory_order_seq_cst);
            sd.mcas_busy[i] = false;
            rdcss_descriptor& rd = sd.rdcss[i];
            rd.seq.store(bump_seq(rd.seq.load(std::memory_order_relaxed)),  // lfrc-lint: order(unpaired-owner-seq-read)
                         std::memory_order_seq_cst);
            sd.rdcss_busy[i] = false;
        }
        sd.mcas_cursor = 0;
        sd.rdcss_cursor = 0;
    }

    struct testing;  // white-box seams for tests; defined below

  private:
    static util::slot_striped<counters>& stripes() noexcept {
        static util::slot_striped<counters> s;
        return s;
    }

    /// Owner-only stripe: load+store, no RMW on the hot path.
    static void tick(std::atomic<std::uint64_t> counters::*field) noexcept {
        std::atomic<std::uint64_t>& c = stripes().local().*field;
        c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);  // lfrc-lint: order(unpaired-stats-counter)
    }

    enum : std::uint64_t {
        status_undecided = 0,
        status_succeeded = 1,
        status_failed = 2,
        status_state_mask = 0x3,
    };

    // Status word: (sequence << 2) | state. The sequence occupies the same
    // 53-bit space as in the cell's descriptor words (desc_seq_mask), so the
    // two compare directly; arithmetic is modulo 2^53 and only equality is
    // ever tested, which makes wraparound benign.
    static constexpr std::uint64_t pack_status(std::uint64_t seq, std::uint64_t state) noexcept {
        return (seq << 2) | state;
    }
    static constexpr std::uint64_t seq_of_status(std::uint64_t w) noexcept {
        return (w >> 2) & desc_seq_mask;
    }
    static constexpr std::uint64_t state_of_status(std::uint64_t w) noexcept {
        return w & status_state_mask;
    }
    static constexpr std::uint64_t bump_seq(std::uint64_t seq) noexcept {
        return (seq + 1) & desc_seq_mask;
    }

    struct mcas_descriptor {
        // Instrumented like the cells: helpers race the owner (and each
        // other) on the sequence/state word, and the sim scheduler must be
        // able to park a thread between reading a tagged cell word and
        // validating the descriptor's sequence. Starts terminal at seq 0;
        // the first acquire bumps to seq 1.
        sim::instrumented_atomic<std::uint64_t> status{pack_status(0, status_failed)};
        // Per-use fields. Plain atomics, relaxed: a stale reader may observe
        // a mix of uses, but every read is followed by an acquire fence and
        // a sequence validation that rejects the snapshot (see
        // snapshot_mcas). Not instrumented — they are immutable within a
        // use, so interleaving on them adds schedules without adding races.
        std::atomic<std::uint32_t> entry_count{0};
        struct entry_words {
            std::atomic<std::uint64_t> addr{0};  // cell*, as an integer
            std::atomic<std::uint64_t> old_val{0};
            std::atomic<std::uint64_t> new_val{0};
        };
        entry_words entries[max_casn];
    };

    struct rdcss_descriptor {
        // Sequence word only (an RDCSS has no decision state of its own);
        // same bump-then-publish discipline as the MCAS status word.
        sim::instrumented_atomic<std::uint64_t> seq{0};
        std::atomic<std::uint64_t> md_word{0};  // control: the tagged MCAS word
        std::atomic<std::uint64_t> a2{0};       // target cell*, as an integer
        std::atomic<std::uint64_t> o2{0};       // expected data value
    };

    // Four descriptors of each kind per slot. The engine itself needs only
    // one MCAS (operations do not nest within a thread — helping another
    // operation uses *its* descriptor) and one RDCSS at a time (each is
    // released as soon as its install attempt returns, before any recursive
    // help), so the pool exists to create reuse distance, not capacity. The
    // busy flags are owner-only and assert the no-nesting invariant.
    static constexpr std::size_t pool_size = std::size_t{1} << desc_index_bits;

    struct slot_descriptors {
        mcas_descriptor mcas[pool_size];
        rdcss_descriptor rdcss[pool_size];
        // Owner-only round-robin cursors and in-use flags.
        std::uint32_t mcas_cursor = 0;
        std::uint32_t rdcss_cursor = 0;
        bool mcas_busy[pool_size] = {};
        bool rdcss_busy[pool_size] = {};
    };

    static_assert(util::thread_registry::max_threads <= (std::size_t{1} << desc_slot_bits),
                  "descriptor words reserve desc_slot_bits for the slot");

    struct descriptor_table_t {
        util::padded<slot_descriptors> slots[util::thread_registry::max_threads];
        descriptor_table_t() {
            // A fiber harness that abandons a slot mid-schedule un-pins it
            // through epoch_domain::clear_slot; hook in so the abandoned
            // slot's descriptors are invalidated at the same point.
            reclaim::epoch_domain::global().register_slot_reset(&mcas_engine::clear_slot);
        }
    };

    // Intentionally leaked: helpers can run during static destruction (a
    // container destructor retiring nodes at exit still routes reads through
    // the engine), which must never race the table's teardown.
    static descriptor_table_t& table() {
        static auto* t = new descriptor_table_t;
        return *t;
    }

    static mcas_descriptor& mcas_of(std::uint64_t w) noexcept {
        return table().slots[desc_slot_of(w)]->mcas[desc_index_of(w)];
    }
    static rdcss_descriptor& rdcss_of(std::uint64_t w) noexcept {
        return table().slots[desc_slot_of(w)]->rdcss[desc_index_of(w)];
    }

    // ---- owner-side acquire/release ---------------------------------------

    /// Take the calling slot's next MCAS descriptor and move it to
    /// (seq+1, UNDECIDED). Bump-then-publish: the sequence moves *before*
    /// the per-use fields are rewritten (release fence in between), so a
    /// stale reader that observes any new-use field and then validates is
    /// guaranteed to see the new sequence and abort.
    static std::uint64_t acquire_mcas() {
        const std::size_t slot = util::thread_registry::instance().slot();
        slot_descriptors& sd = *table().slots[slot];
        const std::size_t idx = sd.mcas_cursor++ % pool_size;
        assert(!sd.mcas_busy[idx] && "per-slot mcas descriptor pool exhausted (nested casn?)");
        sd.mcas_busy[idx] = true;
        mcas_descriptor& d = sd.mcas[idx];
        const std::uint64_t w = d.status.load(std::memory_order_relaxed);  // lfrc-lint: order(unpaired-owner-seq-read)
        assert(state_of_status(w) != status_undecided && "reusing an undecided descriptor");
        const std::uint64_t seq = bump_seq(seq_of_status(w));
        // Plain store, not CAS: the previous use is terminal, so the only
        // competing writes are stale helpers' CASes, which expect the old
        // sequence and lose either way.
        d.status.store(pack_status(seq, status_undecided), std::memory_order_seq_cst);
        std::atomic_thread_fence(std::memory_order_release);  // lfrc-lint: order(desc-reuse-fence)
        return make_desc_word(slot, idx, seq, tag_mcas);
    }

    static void release_mcas(std::uint64_t md_word) noexcept {
        assert(desc_slot_of(md_word) == util::thread_registry::instance().slot());
        table().slots[desc_slot_of(md_word)]->mcas_busy[desc_index_of(md_word)] = false;
    }

    static std::uint64_t acquire_rdcss(std::uint64_t md_word, cell* a2, std::uint64_t o2) {
        const std::size_t slot = util::thread_registry::instance().slot();
        slot_descriptors& sd = *table().slots[slot];
        const std::size_t idx = sd.rdcss_cursor++ % pool_size;
        assert(!sd.rdcss_busy[idx] && "per-slot rdcss descriptor pool exhausted");
        sd.rdcss_busy[idx] = true;
        rdcss_descriptor& rd = sd.rdcss[idx];
        const std::uint64_t seq = bump_seq(rd.seq.load(std::memory_order_relaxed));  // lfrc-lint: order(unpaired-owner-seq-read)
        rd.seq.store(seq, std::memory_order_seq_cst);
        std::atomic_thread_fence(std::memory_order_release);  // lfrc-lint: order(desc-reuse-fence)
        rd.md_word.store(md_word, std::memory_order_relaxed);  // lfrc-lint: seq-owner, order(desc-payload)
        rd.a2.store(reinterpret_cast<std::uint64_t>(a2), std::memory_order_relaxed);  // lfrc-lint: seq-owner, order(desc-payload)
        rd.o2.store(o2, std::memory_order_relaxed);  // lfrc-lint: seq-owner, order(desc-payload)
        return make_desc_word(slot, idx, seq, tag_rdcss);
    }

    static void release_rdcss(std::uint64_t rd_word) noexcept {
        assert(desc_slot_of(rd_word) == util::thread_registry::instance().slot());
        table().slots[desc_slot_of(rd_word)]->rdcss_busy[desc_index_of(rd_word)] = false;
    }

    /// Owner-side operation setup shared by casn() and testing::begin_op:
    /// acquire a descriptor and fill its entries, address-sorted.
    static std::uint64_t begin(const casn_op* ops, std::size_t n) {
        casn_op sorted[max_casn];
        for (std::size_t i = 0; i < n; ++i) {
            assert(is_clean_value(ops[i].expected) && is_clean_value(ops[i].desired));
            sorted[i] = ops[i];
        }
        // Address-order the entries (insertion sort; n <= 4) so overlapping
        // operations install in a consistent order.
        for (std::size_t i = 1; i < n; ++i) {
            const casn_op key = sorted[i];
            std::size_t j = i;
            for (; j > 0 && key.target < sorted[j - 1].target; --j) {
                sorted[j] = sorted[j - 1];
            }
            sorted[j] = key;
        }
        for (std::size_t i = 1; i < n; ++i) {
            assert(sorted[i].target != sorted[i - 1].target && "casn targets must be distinct");
        }
        const std::uint64_t md_word = acquire_mcas();
        mcas_descriptor& d = mcas_of(md_word);
        d.entry_count.store(static_cast<std::uint32_t>(n), std::memory_order_relaxed);  // lfrc-lint: seq-owner, order(desc-payload)
        for (std::size_t i = 0; i < n; ++i) {
            d.entries[i].addr.store(reinterpret_cast<std::uint64_t>(sorted[i].target),  // lfrc-lint: seq-owner, order(desc-payload)
                                    std::memory_order_relaxed);
            d.entries[i].old_val.store(sorted[i].expected, std::memory_order_relaxed);  // lfrc-lint: seq-owner, order(desc-payload)
            d.entries[i].new_val.store(sorted[i].desired, std::memory_order_relaxed);  // lfrc-lint: seq-owner, order(desc-payload)
        }
        return md_word;
    }

    // ---- validated reads ---------------------------------------------------

    struct op_snapshot {
        std::uint32_t n = 0;
        std::uint64_t state = 0;
        struct {
            cell* addr;
            std::uint64_t old_val;
            std::uint64_t new_val;
        } entries[max_casn];
    };

    /// Read the per-use fields of the descriptor `md_word` names, then
    /// validate the sequence (acquire fence between: if any read field
    /// belongs to a later use, the validation is guaranteed to see the later
    /// sequence). Returns false — snapshot unusable — when the descriptor
    /// has been recycled; the operation it named is necessarily decided.
    static bool snapshot_mcas(std::uint64_t md_word, op_snapshot& out) {
        mcas_descriptor& d = mcas_of(md_word);
        const std::uint32_t n = d.entry_count.load(std::memory_order_relaxed);  // lfrc-lint: order(desc-payload)
        assert(n <= max_casn);
        for (std::uint32_t i = 0; i < n; ++i) {
            out.entries[i].addr =
                reinterpret_cast<cell*>(d.entries[i].addr.load(std::memory_order_relaxed));  // lfrc-lint: order(desc-payload)
            out.entries[i].old_val = d.entries[i].old_val.load(std::memory_order_relaxed);  // lfrc-lint: order(desc-payload)
            out.entries[i].new_val = d.entries[i].new_val.load(std::memory_order_relaxed);  // lfrc-lint: order(desc-payload)
        }
        out.n = n;
        std::atomic_thread_fence(std::memory_order_acquire);  // lfrc-lint: order(desc-reuse-fence)
        const std::uint64_t w = d.status.load(std::memory_order_seq_cst);
        if (seq_of_status(w) != desc_seq_of(md_word)) {
            tick(&counters::seq_aborts);
            return false;
        }
        out.state = state_of_status(w);
        return true;
    }

    /// Validated status read (the only mutable MCAS word): false == stale.
    static bool read_status(std::uint64_t md_word, std::uint64_t& state_out) {
        const std::uint64_t w = mcas_of(md_word).status.load(std::memory_order_seq_cst);
        if (seq_of_status(w) != desc_seq_of(md_word)) {
            tick(&counters::seq_aborts);
            return false;
        }
        state_out = state_of_status(w);
        return true;
    }

    // ---- helping -----------------------------------------------------------

    /// Helps whatever descriptor occupies a cell. Progress: if the word is
    /// stale (descriptor recycled), the help no-ops — but then the cell has
    /// already moved past this word (see header), so the caller's re-read
    /// observes a new value.
    static void resolve(std::uint64_t observed) {
        if (is_rdcss(observed)) {
            tick(&counters::helps);
            rdcss_complete(observed);
        } else {
            mcas_help(observed, /*is_owner=*/false);
        }
    }

    /// Finish an installed RDCSS: if the MCAS it serves is still undecided,
    /// promote the cell to the MCAS word; otherwise restore the data value.
    /// Safe on a stale rd_word: the validation aborts, and the removal CAS
    /// expects rd_word itself, which a cell can no longer hold once the
    /// descriptor was reused (owners reuse only after install+complete
    /// returned, which leaves the word out of every cell).
    static void rdcss_complete(std::uint64_t rd_word) {
        rdcss_descriptor& rd = rdcss_of(rd_word);
        const std::uint64_t md_word = rd.md_word.load(std::memory_order_relaxed);  // lfrc-lint: order(desc-payload)
        auto* a2 = reinterpret_cast<cell*>(rd.a2.load(std::memory_order_relaxed));  // lfrc-lint: order(desc-payload)
        const std::uint64_t o2 = rd.o2.load(std::memory_order_relaxed);  // lfrc-lint: order(desc-payload)
        std::atomic_thread_fence(std::memory_order_acquire);  // lfrc-lint: order(desc-reuse-fence)
        if (rd.seq.load(std::memory_order_seq_cst) != desc_seq_of(rd_word)) {
            tick(&counters::seq_aborts);
            return;
        }
        // Control read. A sequence mismatch on the MCAS descriptor means the
        // operation this RDCSS was installing for is already decided (owners
        // only recycle terminal descriptors), so fall through to restore.
        const std::uint64_t sw = mcas_of(md_word).status.load(std::memory_order_seq_cst);
        const bool undecided = seq_of_status(sw) == desc_seq_of(md_word) &&
                               state_of_status(sw) == status_undecided;
        std::uint64_t expected = rd_word;
        a2->raw().compare_exchange_strong(expected, undecided ? md_word : o2,
                                          std::memory_order_seq_cst);
    }

    /// Attempt the RDCSS named by rd_word (caller owns it); returns the data
    /// value that was in *a2 (o2 on success), or a tagged MCAS word if one
    /// blocks the cell.
    static std::uint64_t rdcss_install(std::uint64_t rd_word) {
        rdcss_descriptor& rd = rdcss_of(rd_word);
        auto* a2 = reinterpret_cast<cell*>(rd.a2.load(std::memory_order_relaxed));  // lfrc-lint: seq-owner, order(desc-payload)
        const std::uint64_t o2 = rd.o2.load(std::memory_order_relaxed);  // lfrc-lint: seq-owner, order(desc-payload)
        for (;;) {
            std::uint64_t expected = o2;
            if (a2->raw().compare_exchange_strong(expected, rd_word,
                                                  std::memory_order_seq_cst)) {
                rdcss_complete(rd_word);
                return o2;
            }
            if (is_rdcss(expected)) {
                tick(&counters::helps);
                rdcss_complete(expected);
                continue;  // cell now holds a data value or an MCAS word
            }
            return expected;  // plain mismatch or an MCAS descriptor
        }
    }

    /// Help the operation `md_word` names to completion. Returns true iff
    /// that operation succeeded; false on failure OR on a stale word (the
    /// owner can never observe the latter — it holds the busy flag — and
    /// helpers' callers re-read the cell either way).
    static bool mcas_help(std::uint64_t md_word, bool is_owner) {
        if (!is_owner) tick(&counters::helps);
        op_snapshot snap;
        if (!snapshot_mcas(md_word, snap)) {
            assert(!is_owner);
            return false;
        }
        if (snap.state == status_undecided) {
            // Phase 1: install md_word into each entry, in address order.
            std::uint64_t decided = status_succeeded;
            for (std::uint32_t i = 0; i < snap.n; ++i) {
                const auto& e = snap.entries[i];
                bool entry_done = false;
                while (!entry_done) {
                    // Pre-read fast path: skip the RDCSS acquire entirely
                    // when the cell already holds md_word (another helper
                    // installed it) or visibly cannot match. Besides saving
                    // a descriptor cycle, this keeps the common helping path
                    // to one shared-memory access per already-installed
                    // entry.
                    const std::uint64_t cur = e.addr->raw().load(std::memory_order_seq_cst);
                    if (cur == md_word) {
                        entry_done = true;
                        break;
                    }
                    if (cur != e.old_val) {
                        if (is_mcas(cur)) {
                            mcas_help(cur, /*is_owner=*/false);
                            continue;
                        }
                        if (is_rdcss(cur)) {
                            tick(&counters::helps);
                            rdcss_complete(cur);
                            continue;
                        }
                        decided = status_failed;  // genuine value mismatch
                        entry_done = true;
                        break;
                    }
                    const std::uint64_t rd_word = acquire_rdcss(md_word, e.addr, e.old_val);
                    const std::uint64_t v = rdcss_install(rd_word);
                    // Install+complete returned, so rd_word is out of every
                    // cell and no stale holder can land a CAS with it:
                    // reusable immediately (in particular before the
                    // recursive help below, which bounds the pool).
                    release_rdcss(rd_word);
                    if (v == e.old_val || v == md_word) {
                        entry_done = true;  // installed here, or by another helper
                    } else if (is_mcas(v)) {
                        mcas_help(v, /*is_owner=*/false);
                    } else {
                        decided = status_failed;  // genuine value mismatch
                        entry_done = true;
                    }
                }
                if (decided == status_failed) break;
                // Between entries, bail out early if the operation was
                // decided (or recycled) behind our back. Skipped after the
                // last entry: there is nothing left to install, and the
                // decision CAS below revalidates the sequence anyway.
                if (i + 1 == snap.n) break;
                std::uint64_t st;
                if (!read_status(md_word, st)) {
                    assert(!is_owner);
                    return false;  // recycled underneath us: already decided
                }
                if (st != status_undecided) break;
            }
#if defined(LFRC_ENABLE_MUTATIONS)
            if (mutate_strip_seq_validation().load(std::memory_order_relaxed)) {  // lfrc-lint: order(unpaired-mutation-flag)
                // MUTANT (the classic reuse bug): re-read the status word
                // and trust whatever sequence it carries now, instead of
                // requiring the help ticket's sequence. A helper that
                // stalled across an owner-side reuse imposes its stale
                // phase-1 verdict on the descriptor's *new* operation.
                const std::uint64_t cur =
                    mcas_of(md_word).status.load(std::memory_order_seq_cst);
                std::uint64_t expected =
                    (cur & ~std::uint64_t{status_state_mask}) | status_undecided;
                const std::uint64_t desired =
                    (expected & ~std::uint64_t{status_state_mask}) | decided;
                mcas_of(md_word).status.compare_exchange_strong(expected, desired,  // lfrc-lint: exempt(R7)
                                                                std::memory_order_seq_cst);
            } else
#endif
            {
                // Decision CAS: expected and desired both carry the help
                // ticket's sequence, so a stale helper cannot decide a
                // recycled descriptor's new operation.
                std::uint64_t expected = pack_status(desc_seq_of(md_word), status_undecided);
                mcas_of(md_word).status.compare_exchange_strong(
                    expected, pack_status(desc_seq_of(md_word), decided),
                    std::memory_order_seq_cst);
            }
        }
        // Phase 2: unroll entries to their final values. Every CAS expects
        // md_word (sequence embedded), so stale unrolls are harmless.
        std::uint64_t st;
        if (!read_status(md_word, st)) {
            assert(!is_owner);
            return false;
        }
        const bool succeeded = st == status_succeeded;
        for (std::uint32_t i = 0; i < snap.n; ++i) {
            std::uint64_t expected = md_word;
            snap.entries[i].addr->raw().compare_exchange_strong(  // lfrc-lint: seq-carried
                expected, succeeded ? snap.entries[i].new_val : snap.entries[i].old_val,
                std::memory_order_seq_cst);
        }
        return succeeded;
    }
};

/// White-box seams for tests (tests/test_kcas.cpp,
/// tests/sim/sim_kcas_reuse_test.cpp). Not part of the engine API; nothing
/// here is safe to call concurrently with itself on one slot.
struct mcas_engine::testing {
    /// Acquire the calling slot's next MCAS descriptor, fill it from `ops`,
    /// and directly install its tagged word into every entry cell whose
    /// current value matches — the state of an operation parked mid/post
    /// phase 1, without running any help. Pair with complete_op (or lose the
    /// slot to clear_slot).
    static std::uint64_t begin_op(const casn_op* ops, std::size_t n) {
        assert(n >= 2 && n <= max_casn);
        const std::uint64_t md_word = begin(ops, n);
        // Read entries straight off the descriptor (owner context; per-use
        // fields are immutable within a use) instead of via snapshot_mcas:
        // one fewer instrumented access keeps the race windows this seam
        // exists to stage as tight as possible.
        mcas_descriptor& d = mcas_of(md_word);
        const std::uint32_t cnt = d.entry_count.load(std::memory_order_relaxed);  // lfrc-lint: seq-owner, order(desc-payload)
        for (std::uint32_t i = 0; i < cnt; ++i) {
            auto* target =
                reinterpret_cast<cell*>(d.entries[i].addr.load(std::memory_order_relaxed));  // lfrc-lint: seq-owner, order(desc-payload)
            std::uint64_t expected = d.entries[i].old_val.load(std::memory_order_relaxed);  // lfrc-lint: seq-owner, order(desc-payload)
            target->raw().compare_exchange_strong(expected, md_word,
                                                  std::memory_order_seq_cst);
        }
        return md_word;
    }

    /// Owner-side completion of a begin_op ticket; releases the descriptor.
    static bool complete_op(std::uint64_t md_word) {
        const bool ok = mcas_help(md_word, /*is_owner=*/true);
        release_mcas(md_word);
        return ok;
    }

    /// Non-owner help by tagged word: mcas_help's verdict (false for failed
    /// OR stale).
    static bool help(std::uint64_t md_word) { return mcas_help(md_word, /*is_owner=*/false); }

    /// Live sequence of the descriptor a tagged word names (not the word's
    /// own embedded sequence — compare the two to detect reuse).
    static std::uint64_t live_sequence_of(std::uint64_t desc_word) {
        if (is_rdcss(desc_word)) {
            return rdcss_of(desc_word).seq.load(std::memory_order_seq_cst);
        }
        return seq_of_status(mcas_of(desc_word).status.load(std::memory_order_seq_cst));
    }

    /// Quiescent-only: plant a sequence (terminal state) on a slot's MCAS
    /// descriptor, e.g. just below desc_seq_mask for wraparound tests.
    static void set_mcas_sequence(std::size_t slot, std::size_t index, std::uint64_t seq) {
        table().slots[slot]->mcas[index].status.store(
            pack_status(seq & desc_seq_mask, status_failed), std::memory_order_seq_cst);
    }

    static std::size_t slot_of(std::uint64_t w) noexcept { return desc_slot_of(w); }
    static std::size_t index_of(std::uint64_t w) noexcept { return desc_index_of(w); }
    static std::uint64_t seq_of(std::uint64_t w) noexcept { return desc_seq_of(w); }
    static constexpr std::size_t pool_entries = pool_size;
};

}  // namespace lfrc::dcas
