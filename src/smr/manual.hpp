// Manual-SMR policies: `ebr` (epoch-based reclamation), `hp` (hazard
// pointers, Michael 2002), and `leaky` (never free — the idealized
// "the GC will get it" environment with the collector switched off).
//
// These are the paper's §6 alternatives, expressed against the same cores
// as the counted policies. Links live in raw dcas::cells and all concurrent
// access goes through the Engine, so the same MCAS/CASN machinery that
// emulates DCAS for the counted domain drives insert/unlink/value-install
// here — one engine, six disciplines.
//
// Protection model:
//   ebr    the guard pins one epoch for its lifetime; any pointer read
//          under the pin stays allocated until the guard exits (retired
//          nodes wait out the grace period). Slots carry no state.
//   hp     each used slot lazily claims one of the thread's hazard slots
//          and runs the announce/validate loop. Guards must not be nested
//          per thread (4 slots per thread, 4 per guard).
//   leaky  nothing is ever freed, so a raw read is forever safe.
//
// Retire model: a node's *unlinker* retires it (exactly-once by the
// unlink DCAS), and a displaced value box is retired by the CASN winner.
// Direct retire — no double deferral — is sound for hp because every
// engine operation on a node's cells happens while the operating thread's
// hazard covers that node, so a scan at free time still sees the hazard.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>

#include "alloc/counted.hpp"
#include "dcas/cell.hpp"
#include "dcas/mcas_engine.hpp"
#include "reclaim/epoch.hpp"
#include "reclaim/hazard.hpp"
#include "smr/policy.hpp"

namespace lfrc::smr {

/// The manual policies' shared half: cell_ops supplies the fields and the
/// raw engine operations; `Derived` supplies retire_object (where displaced
/// values and unlinked nodes go).
template <typename Engine, typename Derived>
class manual_policy : public cell_ops<Engine> {
    using ops = cell_ops<Engine>;

  public:
    static constexpr bool counted_links = false;
    static constexpr std::size_t guard_slots = 4;

    /// Nodes of manual policies are plain heap objects; counted_base routes
    /// them through the allocation tracker (leak accounting, and the sim
    /// shadow heap's use-after-free/double-free checks under LFRC_SIM).
    template <typename Node>
    struct node_base : alloc::counted_base {};

    /// Plain owning handle: delete-on-destroy until publish_ok releases
    /// ownership to the structure.
    template <typename Node>
    class owner {
      public:
        owner() = default;
        // lfrc-lint: arena-route — counted_base operator delete
        ~owner() { delete p_; }
        owner(owner&& o) noexcept : p_(o.p_) { o.p_ = nullptr; }
        owner& operator=(owner&& o) noexcept {
            if (this != &o) {
                delete p_;  // lfrc-lint: arena-route
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
        friend manual_policy;
        explicit owner(Node* p) noexcept : p_(p) {}
        Node* p_ = nullptr;
    };

    template <typename Node, typename... Args>
    owner<Node> make_owner(Args&&... args) {
        // lfrc-lint: arena-route — Node derives counted_base; this IS the seam
        return owner<Node>(new Node(std::forward<Args>(args)...));
    }
    template <typename Node>
    void publish_ok(owner<Node>& o) noexcept {
        o.p_ = nullptr;  // the structure owns it now
    }

    struct thread_scope {
        explicit thread_scope(Derived&) noexcept {}
    };

    template <typename Node>
    static void retire_unlinked(Node* n) {
        Derived::retire_object(n);
    }

    /// Quiescent teardown: walk and delete the chain (the nodes were never
    /// handed to a reclaimer — they are still linked). A node type may
    /// declare smr_dispose() to free satellite allocations (the kv entry's
    /// value box) before the node itself goes.
    template <typename Node>
    static void reset_chain(typename ops::template link<Node>& head) {
        Node* n = head.exclusive_get();
        head.exclusive_set(nullptr);
        while (n != nullptr) {
            Node* next = n->next.exclusive_get();
            if constexpr (requires { n->smr_dispose(); }) n->smr_dispose();
            delete n;  // lfrc-lint: arena-route
            n = next;
        }
    }
    template <typename Node>
    static void register_root(typename ops::template link<Node>&) noexcept {}

    /// The CASN winner retires the value it displaced.
    template <typename T>
    static bool vinstall_if_live(typename ops::template vslot<T>& s, std::uint64_t ver,
                                 T* old0, T* new0, typename ops::flag& dead) {
        if (!dcas::install_if_live(s, ver, old0, new0, dead)) return false;
        if (old0 != nullptr) Derived::retire_object(old0);
        return true;
    }
    template <typename T>
    static bool vclaim_mark_dead(typename ops::template vslot<T>& s, std::uint64_t ver, T* old0,
                                 typename ops::flag& dead) {
        if (!dcas::claim_mark_dead(s, ver, old0, dead)) return false;
        if (old0 != nullptr) Derived::retire_object(old0);
        return true;
    }
};

/// Epoch-based reclamation.
template <typename Engine = dcas::mcas_engine>
class ebr : public manual_policy<Engine, ebr<Engine>> {
    using base = manual_policy<Engine, ebr<Engine>>;

  public:
    static constexpr const char* name() noexcept { return "ebr"; }
    static constexpr bool has_lazy_traverse = true;

    template <typename T>
    static void retire_object(T* p) {
        reclaim::epoch_domain::global().retire(p);
    }

    /// Stateless slots under one epoch pin for the guard's lifetime.
    class guard : public base::stateless_guard {
      public:
        explicit guard(ebr&) noexcept {}

      private:
        reclaim::epoch_domain::guard pin_{reclaim::epoch_domain::global()};
    };

    std::uint64_t pending() const noexcept { return reclaim::epoch_domain::global().pending(); }
    std::uint64_t drain(int rounds) { return reclaim::epoch_domain::global().drain(rounds); }
};

/// Hazard pointers. has_lazy_traverse is false: a hazard protects exactly
/// the announced node, so traversals must not walk through logically
/// deleted nodes (a dead node's successor may already be freed) — cores
/// route every read through the strong, unlink-helping paths instead.
template <typename Engine = dcas::mcas_engine>
class hp : public manual_policy<Engine, hp<Engine>> {
    using base = manual_policy<Engine, hp<Engine>>;

  public:
    static constexpr const char* name() noexcept { return "hp"; }
    static constexpr bool has_lazy_traverse = false;

    template <typename T>
    static void retire_object(T* p) {
        reclaim::hazard_domain::global().retire(p);
    }

    class guard {
      public:
        explicit guard(hp&) noexcept {}
        void step() noexcept {}

        /// Announce/validate: after the re-read confirms the source still
        /// points at p, p was linked at announce time, so its retirer's
        /// scan must see our hazard.
        template <typename Node>
        Node* protect(std::size_t i, typename base::template link<Node>& src) {
            auto& h = slot(i);
            for (;;) {
                Node* p = dcas::decode_ptr<Node>(Engine::read(src.cell()));
                h.announce(p);
                if (dcas::decode_ptr<Node>(Engine::read(src.cell())) == p) {
                    cur_[i] = p;
                    return p;
                }
            }
        }
        template <typename Node>
        Node* traverse(std::size_t i, typename base::template link<Node>& src) {
            return protect<Node>(i, src);
        }
        template <typename Node>
        void protect_new(std::size_t i, Node* fresh) {
            // An unpublished node needs no validation — nobody can retire
            // it before the publishing CAS we have not issued yet.
            slot(i).announce(fresh);
            cur_[i] = fresh;
        }
        bool upgrade(std::size_t) noexcept { return true; }
        void advance(std::size_t dst, std::size_t src) {
            // dst takes over before src lets go, so the node is never
            // unprotected in between.
            cur_[dst] = cur_[src];
            slot(dst).announce(cur_[dst]);
            slot(src).clear();
            cur_[src] = nullptr;
        }
        void clear(std::size_t i) {
            if (h_[i]) h_[i]->clear();
            cur_[i] = nullptr;
        }

        template <typename T>
        T* vprotect(std::size_t i, typename base::template vslot<T>& s, std::uint64_t& ver) {
            auto& h = slot(i);
            for (;;) {
                const std::uint64_t v = dcas::decode_count(Engine::read(s.version_cell()));
                const std::uint64_t raw = Engine::read(s.ptr_cell());
                T* p = dcas::decode_ptr<T>(raw);
                h.announce(p);
                // Pointer unchanged after the announce => p was installed
                // at announce time => its displacer's scan sees the hazard.
                if (Engine::read(s.ptr_cell()) != raw) continue;
                if (dcas::decode_count(Engine::read(s.version_cell())) != v) continue;
                cur_[i] = p;
                ver = v;
                return p;
            }
        }
        template <typename T>
        T* vtraverse(std::size_t i, typename base::template vslot<T>& s, std::uint64_t& ver) {
            return vprotect<T>(i, s, ver);
        }

      private:
        /// Hazard slots are claimed lazily, so a guard that only ever uses
        /// two slots (stack/queue ops) coexists with the thread's other
        /// needs within hazard_domain::slots_per_thread.
        reclaim::hazard_domain::hp& slot(std::size_t i) {
            if (!h_[i]) h_[i].emplace(reclaim::hazard_domain::global());
            return *h_[i];
        }
        std::optional<reclaim::hazard_domain::hp> h_[base::guard_slots];
        const void* cur_[base::guard_slots] = {};
    };

    std::uint64_t pending() const noexcept { return reclaim::hazard_domain::global().pending(); }
    std::uint64_t drain(int) {
        reclaim::hazard_domain::global().drain_all();
        return reclaim::hazard_domain::global().pending();
    }
};

/// Never free. Popped/unlinked nodes leak by definition (the containers'
/// destructors still free whatever is LINKED at teardown, so a quiescent
/// structure's residue is exactly the churned nodes).
template <typename Engine = dcas::mcas_engine>
class leaky : public manual_policy<Engine, leaky<Engine>> {
    using base = manual_policy<Engine, leaky<Engine>>;

  public:
    static constexpr const char* name() noexcept { return "leaky"; }
    static constexpr bool has_lazy_traverse = true;

    template <typename T>
    static void retire_object(T*) noexcept {}  // leak, by definition

    /// Nothing is ever freed, so a raw read is forever safe.
    class guard : public base::stateless_guard {
      public:
        explicit guard(leaky&) noexcept {}
    };

    std::uint64_t pending() const noexcept { return 0; }
    std::uint64_t drain(int) noexcept { return 0; }
};

}  // namespace lfrc::smr
