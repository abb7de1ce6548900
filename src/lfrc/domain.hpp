// LFRC core: the paper's methodology as a typed C++ library.
//
// `basic_domain<Engine>` fixes one DCAS engine for a family of managed
// objects and provides the six LFRC operations of Figure 2:
//
//   paper name            here
//   ------------------    ------------------------------------------
//   LFRCLoad(A, p)        domain::load(field, local)
//   LFRCStore(A, v)       domain::store(field, v)
//   LFRCStoreAlloc(A, v)  domain::store_alloc(field, make<T>(...))
//   LFRCCopy(p, v)        domain::copy(local, v)   (and local_ptr op=)
//   LFRCDestroy(v)        domain::destroy(v)       (and ~local_ptr)
//   LFRCCAS(...)          domain::cas(field, old, new)
//   LFRCDCAS(...)         domain::dcas(f0, f1, o0, o1, n0, n1)
//   add_to_rc(p, v)       domain::add_to_rc(p, v)
//
// Beyond Figure 2, `load_borrowed(A)` returns a `borrow_ptr<T>`: an
// epoch-pinned, reference-count-free read of a shared pointer for
// short-lived use (container traversals, retry loops). A borrow never
// touches the pointee's count; `borrow_ptr::promote()` upgrades to a
// counted `local_ptr` with an increment-if-nonzero CAS when the reference
// must outlive the pinned section. See docs/ALGORITHMS.md §8 for the
// correctness argument and the usage rule (borrows may read; any engine
// operation that *writes* an object's fields still requires a counted —
// or atomically liveness-checked — reference to that object).
//
// The §3 transformation steps map to library pieces: step 1 (rc field) is
// the `object` base class; step 2 (LFRCDestroy) is generated from
// `lfrc_visit_children`; step 6 (local pointer management) is automated by
// `local_ptr<T>`, the smart pointer the paper's reference [2] alludes to.
//
// Two deliberate deviations from the paper's pseudocode, both documented in
// DESIGN.md §2/§4:
//
//  * Physical frees are deferred through the global epoch domain. The paper
//    may read `a->rc` of an object that has just been freed and rely on the
//    DCAS failing (a benign read on hardware with type-stable/mapped
//    memory); portable C++ forbids touching freed storage, and our software
//    DCAS additionally has *helpers* that may CAS a cell of a retiring
//    object after its owner finished. Deferring only the physical free —
//    logical destruction still happens exactly when the count hits zero —
//    preserves every claimed property; the footprint still shrinks as
//    epochs advance.
//
//  * `destroy` is iterative (explicit worklist), not recursive: the paper's
//    recursion overflows the stack on a million-node list. Semantics are
//    identical; see also incremental.hpp for the §7 extension that bounds
//    destruction work per call.
#pragma once

#include <cassert>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "alloc/counted.hpp"
#include "dcas/cell.hpp"
#include "dcas/engine.hpp"
#include "dcas/fields.hpp"
#include "lfrc/counters.hpp"
#include "reclaim/epoch.hpp"

namespace lfrc {

template <dcas::dcas_engine Engine>
class basic_domain {
  public:
    using engine = Engine;

    /// The shared fields (dcas/fields.hpp): a pointer (the `*A` of Figure
    /// 2), a flag DCAS-able alongside it (the same move LFRCLoad makes with
    /// the rc word; containers::lfrc_list_set's deletion mark), and the
    /// (pointer, version) pair of the LL/SC extension below.
    template <typename T>
    using ptr_field = dcas::link<Engine, T>;
    using flag_field = dcas::flag<Engine>;
    template <typename T>
    using ll_field = dcas::vslot<Engine, T>;

    class object;
    template <typename T>
    class local_ptr;
    template <typename T>
    class borrow_ptr;

    /// Receives the children of an object being destroyed (step 2).
    class child_visitor {
      public:
        virtual void on_child(object* child) = 0;

      protected:
        ~child_visitor() = default;
    };

    /// Base class for every LFRC-managed object in this domain (§3 step 1:
    /// the rc field, set to 1 at construction for the pointer returned by
    /// `make`).
    class object : public alloc::counted_base {
      public:
        object(const object&) = delete;
        object& operator=(const object&) = delete;

        /// Diagnostic read of the current reference count (racy by nature).
        std::uint64_t ref_count() const noexcept {
            return dcas::decode_count(Engine::read(const_cast<dcas::cell&>(rc_)));
        }

      protected:
        object() noexcept { counters().add_created(1); }
        virtual ~object() = default;

      private:
        friend class basic_domain;
        /// Report every pointer field's current value (exclusive access:
        /// called only when the object is garbage). Step 2 of §3.
        virtual void lfrc_visit_children(child_visitor& v) noexcept = 0;

        dcas::cell rc_{dcas::encode_count(1)};
    };

    /// DCAS over a shared pointer and a shared flag, with LFRC count
    /// bookkeeping on the pointer half only (the flag is not a reference).
    template <typename T>
    static bool dcas_ptr_flag(ptr_field<T>& A, flag_field& F, T* old0, bool old_flag,
                              T* new0, bool new_flag) {
        reclaim::epoch_domain::guard pin(reclaim::epoch_domain::global());
        if (new0 != nullptr) add_to_rc(new0, 1);
        if (Engine::dcas(A.cell(), F.cell(), dcas::encode_ptr(old0),
                         flag_field::encode(old_flag), dcas::encode_ptr(new0),
                         flag_field::encode(new_flag))) {
            destroy(old0);
            return true;
        }
        destroy(new0);
        return false;
    }

    /// A local pointer variable (the `*p` of Figure 2), automating §3 step
    /// 6: null-initialized, LFRCCopy on assignment, LFRCDestroy on scope
    /// exit.
    template <typename T>
    class local_ptr {
      public:
        local_ptr() noexcept = default;

        local_ptr(const local_ptr& other) noexcept : p_(other.p_) {
            if (p_ != nullptr) add_to_rc(p_, 1);
        }
        local_ptr(local_ptr&& other) noexcept : p_(other.p_) { other.p_ = nullptr; }

        local_ptr& operator=(const local_ptr& other) noexcept {
            copy(*this, other.p_);
            return *this;
        }
        local_ptr& operator=(local_ptr&& other) noexcept {
            if (this != &other) {
                destroy(p_);
                p_ = other.p_;
                other.p_ = nullptr;
            }
            return *this;
        }

        ~local_ptr() { destroy(p_); }

        /// Adopt a pointer whose +1 the caller already owns (e.g. the count
        /// a fresh object is born with).
        static local_ptr adopt(T* p) noexcept {
            local_ptr lp;
            lp.p_ = p;
            return lp;
        }

        /// Give up ownership without decrementing.
        T* release() noexcept { return std::exchange(p_, nullptr); }

        void reset() noexcept {
            destroy(p_);
            p_ = nullptr;
        }

        T* get() const noexcept { return p_; }
        T* operator->() const noexcept { return p_; }
        T& operator*() const noexcept { return *p_; }
        explicit operator bool() const noexcept { return p_ != nullptr; }

        friend bool operator==(const local_ptr& a, const local_ptr& b) noexcept {
            return a.p_ == b.p_;
        }
        friend bool operator==(const local_ptr& a, const T* b) noexcept { return a.p_ == b; }

      private:
        friend class basic_domain;
        T* p_ = nullptr;
    };

    /// A borrowed local reference: reads a shared pointer WITHOUT touching
    /// the pointee's reference count, pinning the caller's slot in the
    /// global epoch domain instead. While the pin is held, nothing retired
    /// during (or after) the pin can be physically freed, so dereferencing
    /// the borrow is safe even if the object has since been logically
    /// destroyed (count zero, children decremented) — its storage and
    /// payload are untouched until the deferred free runs.
    ///
    /// Rules of use (docs/ALGORITHMS.md §8):
    ///  * borrows are for SHORT-LIVED, same-thread references: traversals,
    ///    retry loops. A held borrow stalls epoch advance exactly like an
    ///    epoch guard; do not park inside one or ship one across threads.
    ///  * a borrow may READ the pointee (fields via further load_borrowed,
    ///    plain data members, flag_field::load). It must NOT be used to
    ///    justify an engine write to the pointee's cells, nor passed to an
    ///    operation that increments counts on its behalf (store/copy/cas
    ///    new-values): the pointee may already be logically dead. Call
    ///    promote() first.
    ///  * promote() upgrades to a counted local_ptr iff the object is still
    ///    logically alive; a count of zero is absorbing (no operation ever
    ///    resurrects a dead object), so increment-if-nonzero via plain CAS
    ///    is sufficient where LFRCLoad needed DCAS.
    template <typename T>
    class borrow_ptr {
      public:
        borrow_ptr() noexcept = default;

        borrow_ptr(const borrow_ptr& other) noexcept
            : p_(other.p_), pinned_(other.pinned_) {
            if (pinned_) reclaim::epoch_domain::global().enter();
        }
        borrow_ptr(borrow_ptr&& other) noexcept : p_(other.p_), pinned_(other.pinned_) {
            other.p_ = nullptr;
            other.pinned_ = false;
        }

        borrow_ptr& operator=(const borrow_ptr& other) noexcept {
            if (this == &other) return *this;
            // Acquire the new pin before dropping ours so a traversal that
            // reassigns through a chain never fully unpins mid-walk.
            if (other.pinned_) reclaim::epoch_domain::global().enter();
            const bool was_pinned = pinned_;
            p_ = other.p_;
            pinned_ = other.pinned_;
            if (was_pinned) reclaim::epoch_domain::global().exit();
            return *this;
        }
        borrow_ptr& operator=(borrow_ptr&& other) noexcept {
            if (this == &other) return *this;
            const bool was_pinned = pinned_;
            p_ = other.p_;
            pinned_ = other.pinned_;
            other.p_ = nullptr;
            other.pinned_ = false;
            if (was_pinned) reclaim::epoch_domain::global().exit();
            return *this;
        }

        ~borrow_ptr() { reset(); }

        /// Drop the borrow and release its epoch pin.
        void reset() noexcept {
            if (pinned_) {
                reclaim::epoch_domain::global().exit();
                pinned_ = false;
            }
            p_ = nullptr;
        }

        /// Upgrade to a counted reference iff the object is still logically
        /// alive. Returns a null local_ptr when the pointee is null or its
        /// count already reached zero (it is being torn down; the caller
        /// must re-read the shared pointer and retry).
        local_ptr<T> promote() const {
            assert((p_ == nullptr || pinned_) && "promote on a moved-from/reset borrow");
            return try_promote(p_);
        }

        T* get() const noexcept { return p_; }
        T* operator->() const noexcept { return p_; }
        T& operator*() const noexcept { return *p_; }
        explicit operator bool() const noexcept { return p_ != nullptr; }

        friend bool operator==(const borrow_ptr& a, const borrow_ptr& b) noexcept {
            return a.p_ == b.p_;
        }
        friend bool operator==(const borrow_ptr& a, const T* b) noexcept {
            return a.p_ == b;
        }

      private:
        friend class basic_domain;
        T* p_ = nullptr;
        bool pinned_ = false;
    };

    /// LFRCLoadBorrowed: read *A into an epoch-pinned borrow — no count
    /// traffic at all, so N readers of one hot pointer scale instead of
    /// serializing on its count word. The pin is taken BEFORE the read, so
    /// every retire of the read value (and of anything reachable from it)
    /// happens at an epoch our pin blocks from expiring.
    template <typename T>
    static borrow_ptr<T> load_borrowed(ptr_field<T>& A) {
        borrow_ptr<T> out;
        reclaim::epoch_domain::global().enter();
        out.pinned_ = true;
        out.p_ = dcas::decode_ptr<T>(Engine::read(A.cell()));
        counters().add_borrows(1);
        return out;
    }

    /// Increment-if-nonzero upgrade of a raw pointer to a counted
    /// local_ptr — borrow_ptr::promote without the borrow object. The
    /// caller must hold an epoch pin taken BEFORE `p` was read from a
    /// shared field (so the storage is still mapped); a count of zero is
    /// absorbing, so a null return means the object is logically dead and
    /// the field it was read from has changed (or will: its own reference
    /// is being dropped). Used by smr::borrowed to build its strong path.
    template <typename T>
    static local_ptr<T> try_promote(T* p) {
        if (p == nullptr) return {};
        dcas::cell& rc = static_cast<object*>(p)->rc_;
        for (;;) {
            const std::uint64_t raw = Engine::read(rc);
            const std::uint64_t count = dcas::decode_count(raw);
            if (count == 0) return {};  // dead; zero is absorbing
            if (Engine::cas(rc, raw, dcas::encode_count(count + 1))) {
                counters().add_increments(1);
                return local_ptr<T>::adopt(p);
            }
        }
    }

    /// Create a managed object; its birth count of 1 is owned by the
    /// returned local_ptr.
    template <typename T, typename... Args>
    static local_ptr<T> make(Args&&... args) {
        static_assert(std::is_base_of_v<object, T>);
        // lfrc-lint: arena-route — object : counted_base
        return local_ptr<T>::adopt(new T(std::forward<Args>(args)...));
    }

    // ---- Figure 2 operations -------------------------------------------------

    /// add_to_rc: CAS-loop delta on the count; returns the *old* count.
    /// Safe only when the caller knows a counted reference keeps the object
    /// alive (Figure 2's usage discipline).
    static std::uint64_t add_to_rc(object* p, std::int64_t delta) noexcept {
        assert(p != nullptr);
        for (;;) {
            const std::uint64_t old_raw = Engine::read(p->rc_);
            const std::uint64_t old_count = dcas::decode_count(old_raw);
            assert(static_cast<std::int64_t>(old_count) + delta >= 0 &&
                   "reference count underflow");
            const std::uint64_t new_raw =
                dcas::encode_count(static_cast<std::uint64_t>(
                    static_cast<std::int64_t>(old_count) + delta));
            if (Engine::cas(p->rc_, old_raw, new_raw)) {
                auto& ctr = counters();
                if (delta > 0) {
                    ctr.add_increments(static_cast<std::uint64_t>(delta));
                } else {
                    ctr.add_decrements(static_cast<std::uint64_t>(-delta));
                }
                return old_count;
            }
        }
    }

    /// LFRCLoad: load *A into dest, acquiring a counted reference. The DCAS
    /// increments the pointee's count only while *A still points at it —
    /// the step the paper shows cannot be done safely with CAS alone.
    template <typename T>
    static void load(ptr_field<T>& A, local_ptr<T>& dest) {
        static_assert(std::is_base_of_v<object, T>,
                      "ptr_field may only hold LFRC-managed objects");
        reclaim::epoch_domain::guard pin(reclaim::epoch_domain::global());
        T* old_dest = dest.p_;  // line 1: remember for destruction (line 12)
        for (;;) {
            const std::uint64_t raw = Engine::read(A.cell());  // line 4
            if (raw == 0) {                                   // lines 5..7
                dest.p_ = nullptr;
                break;
            }
            T* obj = dcas::decode_ptr<T>(raw);
            // line 8: the object may already be logically dead (then *A has
            // changed and the DCAS below fails); the epoch pin guarantees
            // its storage is still mapped, which the paper gets for free
            // from its hardware assumptions.
            dcas::cell& rc = static_cast<object*>(obj)->rc_;
            const std::uint64_t r = Engine::read(rc);
            const std::uint64_t r_plus =
                dcas::encode_count(dcas::decode_count(r) + 1);
            if (Engine::dcas(A.cell(), rc, raw, r, raw, r_plus)) {  // line 9
                counters().add_increments(1);
                dest.p_ = obj;  // line 10
                break;
            }
        }
        destroy(old_dest);  // line 12
    }

    /// Convenience: load and return a fresh local_ptr.
    template <typename T>
    static local_ptr<T> load_get(ptr_field<T>& A) {
        local_ptr<T> out;
        load(A, out);
        return out;
    }

#if defined(LFRC_ENABLE_MUTATIONS)
    /// White-box count access, for staging an engine operation on a field
    /// and a count the way load() pairs them.
    static dcas::cell& testing_rc_of(object* p) noexcept { return p->rc_; }

    /// MUTANT of load() for the sim harness's self-test ONLY (never compiled
    /// into production or the normal test suite): the Valois-style bug the
    /// paper's §2 uses to motivate DCAS. It increments the pointee's count
    /// with a plain CAS on the count word alone, without re-validating that
    /// *A still points at the object — so a racing final release between
    /// line 4's read and the increment resurrects a logically dead object
    /// (0 -> 1), and the later matching destroy retires it a second time.
    /// tests/sim/sim_mutation_test.cpp asserts the schedule explorer
    /// actually finds this within its budget.
    template <typename T>
    static void load_mutated_plain_cas(ptr_field<T>& A, local_ptr<T>& dest) {
        reclaim::epoch_domain::guard pin(reclaim::epoch_domain::global());
        T* old_dest = dest.p_;
        for (;;) {
            const std::uint64_t raw = Engine::read(A.cell());
            if (raw == 0) {
                dest.p_ = nullptr;
                break;
            }
            T* obj = dcas::decode_ptr<T>(raw);
            dcas::cell& rc = static_cast<object*>(obj)->rc_;
            const std::uint64_t r = Engine::read(rc);
            // BUG (intentional): CAS instead of the Figure-2 DCAS — nothing
            // ties the increment to *A's current value.
            if (Engine::cas(rc, r, dcas::encode_count(dcas::decode_count(r) + 1))) {
                counters().add_increments(1);
                dest.p_ = obj;
                break;
            }
        }
        destroy(old_dest);
    }
#endif

    /// LFRCStore: store v into *A (lines 21..28).
    template <typename T>
    static void store(ptr_field<T>& A, T* v) {
        reclaim::epoch_domain::guard pin(reclaim::epoch_domain::global());
        if (v != nullptr) add_to_rc(v, 1);  // lines 22..23
        for (;;) {
            const std::uint64_t old_raw = Engine::read(A.cell());  // line 25
            if (Engine::cas(A.cell(), old_raw, dcas::encode_ptr(v))) {  // line 26
                destroy(dcas::decode_ptr<T>(old_raw));  // line 27
                return;
            }
        }
    }

    template <typename T>
    static void store(ptr_field<T>& A, const local_ptr<T>& v) {
        store(A, v.get());
    }

    /// LFRCStoreAlloc (Figure 1 line 35): store a fresh object, transferring
    /// its birth count to the shared pointer instead of incrementing.
    template <typename T>
    static void store_alloc(ptr_field<T>& A, local_ptr<T>&& fresh) {
        reclaim::epoch_domain::guard pin(reclaim::epoch_domain::global());
        T* v = fresh.release();  // we now own its +1
        for (;;) {
            const std::uint64_t old_raw = Engine::read(A.cell());
            if (Engine::cas(A.cell(), old_raw, dcas::encode_ptr(v))) {
                destroy(dcas::decode_ptr<T>(old_raw));
                return;
            }
        }
    }

    /// LFRCCopy: local-to-local assignment (lines 29..32).
    template <typename T>
    static void copy(local_ptr<T>& dst, T* w) noexcept {
        if (w != nullptr) add_to_rc(w, 1);  // lines 29..30
        destroy(dst.p_);                    // line 31
        dst.p_ = w;                         // line 32
    }

    template <typename T>
    static void copy(local_ptr<T>& dst, const local_ptr<T>& w) noexcept {
        copy(dst, w.get());
    }

    /// LFRCCAS: CAS on a shared pointer with count bookkeeping.
    template <typename T>
    static bool cas(ptr_field<T>& A, T* old0, T* new0) {
        reclaim::epoch_domain::guard pin(reclaim::epoch_domain::global());
        if (new0 != nullptr) add_to_rc(new0, 1);
        if (Engine::cas(A.cell(), dcas::encode_ptr(old0), dcas::encode_ptr(new0))) {
            destroy(old0);
            return true;
        }
        destroy(new0);
        return false;
    }

    /// LFRCDCAS (lines 33..39): DCAS on two shared pointers with count
    /// bookkeeping. Counts of new values are raised before the attempt and
    /// compensated on failure; counts of the two destroyed pointers are
    /// dropped on success.
    template <typename T, typename U>
    static bool dcas(ptr_field<T>& A0, ptr_field<U>& A1, T* old0, U* old1, T* new0,
                     U* new1) {
        reclaim::epoch_domain::guard pin(reclaim::epoch_domain::global());
        if (new0 != nullptr) add_to_rc(new0, 1);  // line 33
        if (new1 != nullptr) add_to_rc(new1, 1);  // line 34
        if (Engine::dcas(A0.cell(), A1.cell(), dcas::encode_ptr(old0), dcas::encode_ptr(old1),
                         dcas::encode_ptr(new0), dcas::encode_ptr(new1))) {  // line 35
            destroy(old0);  // line 36
            destroy(old1);
            return true;
        }
        destroy(new0);  // line 38
        destroy(new1);
        return false;
    }

    /// LFRCDestroy (lines 13..15), iterative. Decrements; at zero, visits
    /// children (recursively, via the worklist) and retires the object.
    static void destroy(object* p) {
        if (p == nullptr) return;
        if (add_to_rc(p, -1) != 1) return;  // line 13

        struct sink final : child_visitor {
            std::vector<object*> work;
            void on_child(object* child) override {
                if (child != nullptr) work.push_back(child);
            }
        } children;

        retire_garbage(p, children);
        while (!children.work.empty()) {  // line 14, flattened
            object* child = children.work.back();
            children.work.pop_back();
            if (add_to_rc(child, -1) == 1) retire_garbage(child, children);
        }
    }

    /// Variadic shorthand used throughout Figure 1 ("a call to LFRCDestroy
    /// with multiple arguments is shorthand for calling it once with each").
    template <typename... Ts>
    static void destroy_all(Ts*... ptrs) {
        (destroy(static_cast<object*>(ptrs)), ...);
    }

    // ---- Load-linked / store-conditional extension ---------------------------
    //
    // §2.1: "it should be straightforward to extend our methodology to
    // support other operations such as load-linked and store-conditional."
    // An ll_field pairs the pointer cell with a version cell; every write
    // bumps the version, and store_conditional DCASes (pointer, version) so
    // it succeeds iff no write intervened since the load_linked — true
    // LL/SC semantics (no ABA) up to 62-bit version wrap.

    /// Token witnessing an ll_field's version at load_linked time.
    struct link_token {
        std::uint64_t version = 0;
    };

    /// LFRCLoadLinked: counted load plus a version witness for a later
    /// store_conditional.
    template <typename T>
    static link_token load_linked(ll_field<T>& A, local_ptr<T>& dest) {
        static_assert(std::is_base_of_v<object, T>,
                      "ll_field may only hold LFRC-managed objects");
        reclaim::epoch_domain::guard pin(reclaim::epoch_domain::global());
        T* old_dest = dest.p_;
        link_token token;
        for (;;) {
            token.version = dcas::decode_count(Engine::read(A.version_cell()));
            const std::uint64_t raw = Engine::read(A.ptr_cell());
            if (raw == 0) {
                // Pair (version, null) must be consistent: re-validate.
                if (dcas::decode_count(Engine::read(A.version_cell())) != token.version) continue;
                dest.p_ = nullptr;
                break;
            }
            T* obj = dcas::decode_ptr<T>(raw);
            dcas::cell& rc = static_cast<object*>(obj)->rc_;
            const std::uint64_t r = Engine::read(rc);
            if (Engine::dcas(A.ptr_cell(), rc, raw, r,
                             raw, dcas::encode_count(dcas::decode_count(r) + 1))) {
                counters().add_increments(1);
                // The pointer was unchanged at the DCAS; if the version
                // also still matches, the token is coherent with the value.
                if (dcas::decode_count(Engine::read(A.version_cell())) != token.version) {
                    destroy(obj);  // stale pairing: give the count back, retry
                    continue;
                }
                dest.p_ = obj;
                break;
            }
        }
        destroy(old_dest);
        return token;
    }

    /// Borrowed read of an ll_field: an epoch-pinned, count-free snapshot of
    /// the (pointer, version) pair. The validate loop re-reads the version
    /// after the pointer so the pair is coherent — the returned version is
    /// the one under which the returned pointer was the field's value. Same
    /// usage rules as every borrow (reads only; promote before writes); pair
    /// the version with a later counted load_linked + store_conditional to
    /// get an optimistic read / conditional write protocol with zero count
    /// traffic on the read side (the store's versioned get/cas).
    template <typename T>
    static borrow_ptr<T> load_borrowed(ll_field<T>& A,
                                       std::uint64_t* version_out = nullptr) {
        borrow_ptr<T> out;
        reclaim::epoch_domain::global().enter();
        out.pinned_ = true;
        for (;;) {
            const std::uint64_t v = dcas::decode_count(Engine::read(A.version_cell()));
            const std::uint64_t raw = Engine::read(A.ptr_cell());
            if (dcas::decode_count(Engine::read(A.version_cell())) != v) continue;
            out.p_ = dcas::decode_ptr<T>(raw);
            if (version_out != nullptr) *version_out = v;
            break;
        }
        counters().add_borrows(1);
        return out;
    }

    /// LFRCStoreConditional: store v iff no write hit A since `token`.
    /// `old0` is the value the caller load_linked (needed for the DCAS and
    /// the count bookkeeping). Returns false — with counts restored — on
    /// any intervening write, including ABA rewrites.
    template <typename T>
    static bool store_conditional(ll_field<T>& A, link_token token, T* old0, T* new0) {
        reclaim::epoch_domain::guard pin(reclaim::epoch_domain::global());
        if (new0 != nullptr) add_to_rc(new0, 1);
        if (Engine::dcas(A.ptr_cell(), A.version_cell(), dcas::encode_ptr(old0),
                         dcas::encode_count(token.version), dcas::encode_ptr(new0),
                         dcas::encode_count(token.version + 1))) {
            destroy(old0);
            return true;
        }
        destroy(new0);
        return false;
    }

    /// store_conditional that additionally requires F to be false AT the
    /// write's linearization point (dcas::install_if_live, a 3-word CASN
    /// over ptr, version, and the flag cell). The store subsystem uses this to install
    /// values only into entries that are still live: a recheck-after-write
    /// protocol can let a value be transiently visible in an entry a racing
    /// eraser already claimed — visible, then silently gone with no erase to
    /// account for it. Making liveness part of the write itself closes that
    /// window. Count bookkeeping is store_conditional's exactly.
    template <typename T>
    static bool store_conditional_if_flag(ll_field<T>& A, link_token token, T* old0,
                                          T* new0, flag_field& F) {
        reclaim::epoch_domain::guard pin(reclaim::epoch_domain::global());
        if (new0 != nullptr) add_to_rc(new0, 1);
        if (dcas::install_if_live(A, token.version, old0, new0, F)) {
            destroy(old0);
            return true;
        }
        destroy(new0);
        return false;
    }

    /// Atomically claim an ll_field's value AND raise a flag: the field goes
    /// old0 -> null (version bumped) while F goes false -> true, as one CASN.
    /// This is the eraser's linearization point — the value it witnessed via
    /// load_linked is removed in the same instant the entry is marked dead,
    /// so no later writer can slip a value into the entry between the
    /// snapshot and the mark. On success the field's reference to old0 is
    /// dropped (the caller's own counted reference is untouched).
    template <typename T>
    static bool claim_and_set_flag(ll_field<T>& A, link_token token, T* old0,
                                   flag_field& F) {
        reclaim::epoch_domain::guard pin(reclaim::epoch_domain::global());
        if (dcas::claim_mark_dead(A, token.version, old0, F)) {
            destroy(old0);
            return true;
        }
        return false;
    }

    /// Unconditional store into an ll_field (bumps the version, so it
    /// invalidates outstanding links). Used for initialization/teardown.
    template <typename T>
    static void ll_store(ll_field<T>& A, T* v) {
        reclaim::epoch_domain::guard pin(reclaim::epoch_domain::global());
        if (v != nullptr) add_to_rc(v, 1);
        for (;;) {
            const std::uint64_t ver = Engine::read(A.version_cell());
            const std::uint64_t old_raw = Engine::read(A.ptr_cell());
            if (Engine::dcas(A.ptr_cell(), A.version_cell(), old_raw, ver, dcas::encode_ptr(v),
                             dcas::encode_count(dcas::decode_count(ver) + 1))) {
                destroy(dcas::decode_ptr<T>(old_raw));
                return;
            }
        }
    }

    /// Extension hook (cycle_collector.hpp): enumerate the children of an
    /// object. Requires exclusive access to the object's fields — i.e. a
    /// quiescent moment — since lfrc_visit_children reads them with
    /// exclusive_get.
    static void visit_children_quiescent(object* p, child_visitor& v) {
        p->lfrc_visit_children(v);
    }

    /// Extension hook (incremental.hpp, cycle_collector.hpp): take a dead
    /// object — its count is already zero and the caller owns it — report
    /// its children to `children` WITHOUT decrementing them, and retire its
    /// storage. The caller is responsible for the children's decrements.
    static void collect_children_and_retire(object* p, child_visitor& children) {
        retire_garbage(p, children);
    }

    static domain_counters& counters() noexcept {
        static domain_counters c;
        return c;
    }

  private:
    /// Collect children of a dead object and hand its storage to the epoch
    /// domain (line 15's `delete`, deferred — see the header comment).
    static void retire_garbage(object* p, child_visitor& children) {
        p->lfrc_visit_children(children);
        counters().add_destroyed(1);
        reclaim::epoch_domain::global().retire(
            p, [](void* q) { delete static_cast<object*>(q); });  // lfrc-lint: arena-route
    }
};

}  // namespace lfrc
