// smr policies backed by the LFRC domain: `counted` (the paper's Figure-2
// operations end to end) and `borrowed` (the same ownership discipline with
// the epoch-borrowed read fast path for traversals).
//
// Both policies derive their fields (Domain::ptr_field / flag_field /
// ll_field are cell_ops' link / flag / vslot over the domain's engine),
// peek and flag operations from cell_ops, like every other policy; the
// link and vslot writes go through the domain's Figure-2 operations, so the
// reference counts themselves carry the protection: a guard slot holds a
// counted reference (LFRCLoad acquired it, LFRCDestroy releases it when the
// slot is overwritten or the guard dies). Nothing is ever handed to a
// reclaimer explicitly — retire_unlinked is a no-op because unlinking
// transfers the link's count and the last release frees the node through
// lfrc_visit_children.
//
// `borrowed` derives from `counted` and differs only in its guard's
// traversal grade: the guard pins one epoch for its lifetime, traverse()
// reads raw pointers under that pin (zero count traffic per hop — the
// E7/E9 fast path), and upgrade() promotes the current slot to a counted
// reference with Domain::try_promote before any write. Strong protect()
// loops peek+try_promote: it can only keep failing while the source field
// keeps changing, because a live field holds a count on its referent.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "lfrc/domain.hpp"
#include "reclaim/epoch.hpp"
#include "smr/policy.hpp"

namespace lfrc::smr {

/// The paper's discipline as a policy. The mutation parameters (available
/// only under -DLFRC_ENABLE_MUTATIONS via the aliases below) seed known
/// bugs for the sim harness to re-find:
///  * `Mutated` swaps the guard's protect for the Valois-style plain-CAS
///    load so the generic cores still expose the §2 resurrection bug.
///  * `FlagBlind` downgrades vinstall_if_live from the 3-word CASN (pointer,
///    version, dead-flag) to the flag-blind 2-word store_conditional — the
///    pre-PR-3 put-vs-erase lost-update window, re-seeded to prove the
///    store detector was not blinded by the engine's sequence-tag words.
template <typename Domain, bool Mutated = false, bool FlagBlind = false>
class counted : public cell_ops<typename Domain::engine> {
    using ops = cell_ops<typename Domain::engine>;

  public:
    using domain_type = Domain;

    static constexpr const char* name() noexcept {
        return Mutated ? "counted-mutated" : (FlagBlind ? "counted-flag-blind" : "counted");
    }
    static constexpr bool counted_links = true;
    // Counted traversal may pass through logically deleted nodes: the
    // slot's reference keeps the node (and its frozen next chain) alive.
    static constexpr bool has_lazy_traverse = true;
    static constexpr std::size_t guard_slots = 4;

    template <typename Node>
    using link = typename ops::template link<Node>;
    using flag = typename ops::flag;
    template <typename T>
    using vslot = typename ops::template vslot<T>;

    /// Adapts the node's smr_children enumeration to the domain's tracing
    /// hook, so the recursive-destruction chain of LFRCDestroy works.
    template <typename Node>
    class node_base : public Domain::object {
      private:
        void lfrc_visit_children(typename Domain::child_visitor& v) noexcept override {
            detail::visit_children(*static_cast<Node*>(this),
                                   [&v](auto& field) { v.on_child(field.exclusive_get()); });
        }
    };

    /// Owns the birth reference from make<>. publish_ok is a no-op: the
    /// publishing CAS added the structure's own count, and the owner's
    /// destructor releases the birth count either way.
    template <typename Node>
    class owner {
      public:
        owner() = default;
        Node* get() const noexcept { return lp_.get(); }
        Node* operator->() const noexcept { return lp_.get(); }
        explicit operator bool() const noexcept { return static_cast<bool>(lp_); }

      private:
        friend counted;
        explicit owner(typename Domain::template local_ptr<Node> lp) : lp_(std::move(lp)) {}
        typename Domain::template local_ptr<Node> lp_;
    };

    template <typename Node, typename... Args>
    owner<Node> make_owner(Args&&... args) {
        return owner<Node>(Domain::template make<Node>(std::forward<Args>(args)...));
    }
    template <typename Node>
    void publish_ok(owner<Node>&) noexcept {}

    struct thread_scope {
        explicit thread_scope(counted&) noexcept {}
    };

    class guard {
      public:
        explicit guard(counted&) noexcept {}
        ~guard() {
            for (auto*& s : slots_) Domain::destroy(s);
        }
        guard(const guard&) = delete;
        guard& operator=(const guard&) = delete;

        void step() noexcept {}

        template <typename Node>
        Node* protect(std::size_t i, link<Node>& src) {
            typename Domain::template local_ptr<Node> lp;
            if constexpr (Mutated) {
#ifdef LFRC_ENABLE_MUTATIONS
                Domain::load_mutated_plain_cas(src, lp);
#endif
            } else {
                Domain::load(src, lp);
            }
            return set(i, lp.release());
        }
        template <typename Node>
        Node* traverse(std::size_t i, link<Node>& src) {
            return protect(i, src);
        }
        template <typename Node>
        void protect_new(std::size_t i, Node* fresh) {
            Domain::add_to_rc(fresh, 1);
            set(i, fresh);
        }
        bool upgrade(std::size_t) noexcept { return true; }
        void advance(std::size_t dst, std::size_t src) {
            Domain::destroy(slots_[dst]);
            slots_[dst] = slots_[src];
            slots_[src] = nullptr;
        }
        void clear(std::size_t i) {
            Domain::destroy(slots_[i]);
            slots_[i] = nullptr;
        }

        template <typename T>
        T* vprotect(std::size_t i, vslot<T>& src, std::uint64_t& ver) {
            typename Domain::template local_ptr<T> lp;
            ver = Domain::load_linked(src, lp).version;
            return set(i, lp.release());
        }
        template <typename T>
        T* vtraverse(std::size_t i, vslot<T>& src, std::uint64_t& ver) {
            return vprotect(i, src, ver);
        }

      private:
        template <typename X>
        X* set(std::size_t i, X* p) {
            Domain::destroy(slots_[i]);
            slots_[i] = static_cast<typename Domain::object*>(p);
            return p;
        }
        typename Domain::object* slots_[guard_slots] = {};
    };

    // ---- link / vslot writes: the domain's counted operations -----------

    template <typename Node>
    void init_link(link<Node>& A, Node* v) {
        Domain::store(A, v);
    }
    template <typename Node>
    bool cas_link(link<Node>& A, Node* old0, Node* new0) {
        return Domain::cas(A, old0, new0);
    }
    template <typename Node>
    bool dcas_link_flag(link<Node>& A, flag& F, Node* old0, bool old_flag, Node* new0,
                        bool new_flag) {
        return Domain::dcas_ptr_flag(A, F, old0, old_flag, new0, new_flag);
    }

    template <typename Node>
    void retire_unlinked(Node*) noexcept {}  // the count transfer already did it

    template <typename Node>
    void reset_chain(link<Node>& head) {
        // Severing the head reference unravels the chain through
        // lfrc_visit_children (iteratively, inside LFRCDestroy).
        Domain::store(head, static_cast<Node*>(nullptr));
    }
    template <typename Node>
    void register_root(link<Node>&) noexcept {}

    template <typename T>
    bool vinstall_if_live(vslot<T>& s, std::uint64_t ver, T* old0, T* new0, flag& dead) {
        if constexpr (FlagBlind) {
            // MUTANT: ignore the dead flag — the install can land in an
            // entry a concurrent erase just claimed, losing the update.
            return Domain::store_conditional(s, typename Domain::link_token{ver}, old0,
                                             new0);
        } else {
            return Domain::store_conditional_if_flag(s, typename Domain::link_token{ver},
                                                     old0, new0, dead);
        }
    }
    template <typename T>
    bool vclaim_mark_dead(vslot<T>& s, std::uint64_t ver, T* old0, flag& dead) {
        return Domain::claim_and_set_flag(s, typename Domain::link_token{ver}, old0, dead);
    }

    std::uint64_t pending() const noexcept { return reclaim::epoch_domain::global().pending(); }
    std::uint64_t drain(int rounds) { return reclaim::epoch_domain::global().drain(rounds); }
};

#ifdef LFRC_ENABLE_MUTATIONS
/// The Valois plain-CAS load mutant, as a policy: the sim conformance
/// suite drives it through the generic cores to prove the harness still
/// catches the §2 resurrection race after this refactor.
template <typename Domain>
using counted_mutated = counted<Domain, /*Mutated=*/true>;

/// The flag-blind vinstall mutant: the store's put-vs-erase lost-update
/// detector (tests/sim/sim_kcas_reuse_test.cpp) must still trigger on it
/// with the sequence-tagged engine underneath.
template <typename Domain>
using counted_flag_blind = counted<Domain, /*Mutated=*/false, /*FlagBlind=*/true>;
#endif

/// Counted ownership, borrowed reads. Everything but the guard is
/// `counted`'s: the fields, owner, link operations and vslot CASNs are
/// inherited; the guard's strong operations (protect, vprotect) acquire
/// counted references as counted's do, while traverse/vtraverse ride the
/// guard's epoch pin with zero count traffic.
template <typename Domain>
class borrowed : public counted<Domain> {
    using base = counted<Domain>;

  public:
    static constexpr const char* name() noexcept { return "borrowed"; }

    class guard {
      public:
        explicit guard(borrowed&) noexcept {}
        ~guard() {
            release_all();
            // pin_ releases after the slots: a counted release may retire
            // through the epoch domain, which is fine under or before the
            // exit, and uncounted slots are only valid while pinned.
        }
        guard(const guard&) = delete;
        guard& operator=(const guard&) = delete;

        void step() noexcept {}

        /// Strong protect: acquire a counted reference. The peek+promote
        /// loop terminates because the source field — a field of a live,
        /// strongly protected parent (or a container root) — holds a count
        /// on its referent: try_promote can only observe zero after the
        /// field moved off the pointer we peeked.
        template <typename Node>
        Node* protect(std::size_t i, typename base::template link<Node>& src) {
            for (;;) {
                Node* raw = base::peek(src);
                if (raw == nullptr) {
                    clear(i);
                    return nullptr;
                }
                if (auto lp = Domain::try_promote(raw)) {
                    set(i, lp.release(), true);
                    return raw;
                }
            }
        }

        /// Borrowed traverse: a raw pointer valid under the guard's epoch
        /// pin (counted objects free through the epoch domain). No write
        /// license — upgrade() first.
        template <typename Node>
        Node* traverse(std::size_t i, typename base::template link<Node>& src) {
            Node* raw = base::peek(src);
            set(i, raw, false);
            return raw;
        }

        template <typename Node>
        void protect_new(std::size_t i, Node* fresh) {
            Domain::add_to_rc(fresh, 1);
            set(i, fresh, true);
        }

        /// Promote slot i from borrowed to counted. Single-shot: failure
        /// means the node's count hit zero (it is being destroyed) — the
        /// caller treats that as a miss, exactly like borrow_ptr::promote.
        bool upgrade(std::size_t i) {
            slot_t& s = slots_[i];
            if (s.p == nullptr) return false;
            if (s.counted) return true;
            auto lp = Domain::try_promote(s.p);
            if (!lp) return false;
            s.p = lp.release();
            s.counted = true;
            return true;
        }

        void advance(std::size_t dst, std::size_t src) {
            release(dst);
            slots_[dst] = slots_[src];
            slots_[src] = {};
        }
        void clear(std::size_t i) {
            release(i);
            slots_[i] = {};
        }

        template <typename T>
        T* vprotect(std::size_t i, typename base::template vslot<T>& src, std::uint64_t& ver) {
            typename Domain::template local_ptr<T> lp;
            ver = Domain::load_linked(src, lp).version;
            T* raw = lp.get();
            set(i, lp.release(), true);
            return raw;
        }
        /// Borrowed versioned read: load_borrowed's version/pointer/version
        /// validation, with the raw pointer outliving the call under our
        /// own pin (load_borrowed's internal pin nests re-entrantly).
        template <typename T>
        T* vtraverse(std::size_t i, typename base::template vslot<T>& src, std::uint64_t& ver) {
            auto b = Domain::load_borrowed(src, &ver);
            T* raw = b.get();
            set(i, raw, false);
            return raw;
        }

      private:
        struct slot_t {
            typename Domain::object* p = nullptr;
            bool counted = false;
        };
        template <typename X>
        void set(std::size_t i, X* p, bool counted_ref) {
            release(i);
            slots_[i] = {static_cast<typename Domain::object*>(p), counted_ref};
        }
        void release(std::size_t i) {
            if (slots_[i].counted) Domain::destroy(slots_[i].p);
        }
        void release_all() {
            for (std::size_t i = 0; i < base::guard_slots; ++i) {
                release(i);
                slots_[i] = {};
            }
        }

        slot_t slots_[base::guard_slots] = {};
        reclaim::epoch_domain::guard pin_{reclaim::epoch_domain::global()};
    };
};

}  // namespace lfrc::smr
