// lfrc::smr — one seam for safe memory reclamation.
//
// The paper's claim is methodological: LFRC is a *drop-in* discipline that
// turns GC-dependent lock-free structures into GC-independent ones. To make
// that claim testable as code, every reclamation scheme in the repo is
// expressed as an `smr::policy` — a small duck-typed interface a generic
// container core (containers/{stack,queue,list}_core.hpp) is templated on.
// The same traversal logic then runs, unmodified, over:
//
//   counted   the paper's Figure-2 counted operations (lfrc::basic_domain)
//   borrowed  counted ownership + the epoch-borrowed read fast path
//   ebr       epoch-based reclamation (retire-on-unlink, grace periods)
//   hp        hazard pointers (Michael 2002 announce/validate)
//   leaky     never free — the idealized "the GC will get it" fiction
//   gc_heap   an actual GC: the toy stop-the-world mark-sweep heap
//   deferred  thread-local deferred RC (ABW/libsref): epoch-pinned guards,
//             per-thread delta tables, zero-count nodes retired into the
//             epoch domain
//
// All seven derive their fields and raw link/flag operations from cell_ops
// below, and ebr/leaky/deferred their guard as well. What differs is the
// bookkeeping a policy wraps around those operations: counted routes them
// through the domain's Figure-2 operations (borrowed derives from counted
// and owns only its guard), deferred records ±1 deltas, and the manual
// policies retire what a CAS displaced.
//
// This mirrors Meyer & Wolff's observation that reclamation factors out of
// a lock-free structure behind a guard/retire interface, and Anderson/
// Blelloch/Wei's that counted and manual SMR are interchangeable behind it.
//
// ---- The policy contract (duck-typed; `policy` below checks the core) ----
//
// Types:
//   P::link<Node>   one-word pointer field linking Node objects: a
//                   dcas::link over the policy's engine, the type the
//                   engine's domain calls ptr_field (for counted policies
//                   the count lives in the pointee).
//   P::flag         one-word boolean field DCAS-able alongside a link
//                   (logical-deletion marks).
//   P::vslot<T>     versioned pointer slot (pointer + version cell pair);
//                   the LL/SC surface the kv store's value slots need.
//   P::node_base<Node>  CRTP base every node type derives from. It adapts
//                   the node's `smr_children(f)` enumeration (call f on
//                   every link/vslot field holding children) to whatever
//                   the scheme's tracing needs: lfrc_visit_children for
//                   counted domains, gc_trace for the gc heap, nothing for
//                   manual schemes.
//   P::owner<Node>  RAII handle for a node between allocation and its
//                   publishing CAS. make_owner allocates; publish_ok(o)
//                   transfers ownership to the structure after the CAS
//                   succeeds; an owner destroyed without publish_ok
//                   releases the node by the scheme's rules.
//   P::guard        RAII protection scope with `guard_slots` numbered
//                   slots. Constructed from the policy instance; must not
//                   be nested per thread for slot-limited schemes (hp).
//   P::thread_scope RAII per-thread attachment (gc heap attach; no-op
//                   elsewhere). Container ctors that allocate wrap
//                   themselves in one; mutating ops require the CALLER to
//                   hold one where the scheme needs it (gc).
//
// Guard operations (i, j are slot indices):
//   protect(i, link) -> Node*   strong protection: the returned node is
//                   safe to dereference and its link/flag fields safe to
//                   CAS until the slot is overwritten/cleared. May only be
//                   applied to fields of the container root or of nodes
//                   protected *strongly* in another slot.
//   traverse(i, link) -> Node*  lazy-grade protection: memory-safe to read
//                   but, for `borrowed`, not counted (no write license).
//                   Policies advertise `has_lazy_traverse`; when false
//                   (hp), traverse degrades to protect and cores must not
//                   walk through logically deleted nodes with it.
//   upgrade(i) -> bool          promote a traverse-grade slot to strong
//                   (single-shot try_promote for `borrowed`; trivially
//                   true elsewhere). Failure means the node is being
//                   destroyed — treat as a miss.
//   protect_new(i, node)        protect a not-yet-published node (announce
//                   BEFORE the publishing CAS so hp scans see it).
//   advance(dst, src)           move a slot's protection (dst := src).
//   clear(i) / step()           drop one slot / per-iteration safepoint
//                   hook (gc parks for collections here).
//   vprotect(i, vslot, &ver)    strong versioned read (load_linked / the
//                   validate loop); vtraverse is its lazy twin.
//
// Policy operations (instance methods; engines and domains make most of
// them static underneath):
//   peek(link)                  raw read — identity checks and CAS
//                   expected-values only, NEVER dereference the result.
//   init_link(link, p)          exclusive-access store (ctor / unpublished
//                   node), with counted bookkeeping where it applies.
//   cas_link(link, o, n)        single-width CAS with count transfer.
//   dcas_link_flag(l, f, ...)   the paper's DCAS on (link, flag) — the
//                   insert/unlink primitive.
//   flag_load / flag_cas        dead-flag access.
//   vinstall_if_live(...)       CASN {ptr o->n, version v->v+1, flag
//                   false->false}: install a value iff the entry is live.
//   vclaim_mark_dead(...)       CASN {ptr o->null, version v->v+1, flag
//                   false->true}: the erase claim.
//   retire_unlinked(p)          hand an unlinked node to the reclaimer
//                   (no-op for counted/leaky/gc — counts, nothing, or the
//                   collector already own the problem).
//   reset_chain(link)           quiescent teardown of a `next`-linked
//                   chain rooted at `link`.
//   register_root(link)         declare a container root cell (gc only).
//   pending() / drain(rounds)   reclaimer backlog introspection and a
//                   bounded flush; drain returns the residual backlog.
#pragma once

#include <cassert>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "dcas/cell.hpp"
#include "dcas/fields.hpp"

namespace lfrc::smr {

/// Compile-time check of the core, non-templated part of the contract.
/// The templated members (link ops, guard protect, …) are duck-typed —
/// container cores are their real conformance check, and the
/// policy-parameterized test suite instantiates all of them.
template <typename P>
concept policy = requires(P& p, typename P::guard& g, std::size_t i) {
    { P::name() } -> std::convertible_to<const char*>;
    { P::counted_links } -> std::convertible_to<bool>;
    { P::has_lazy_traverse } -> std::convertible_to<bool>;
    { P::guard_slots } -> std::convertible_to<std::size_t>;
    requires std::constructible_from<typename P::guard, P&>;
    typename P::thread_scope;
    { g.step() };
    { g.upgrade(i) } -> std::convertible_to<bool>;
    { g.advance(i, i) };
    { g.clear(i) };
    { p.pending() } -> std::convertible_to<std::uint64_t>;
    { p.drain(1) } -> std::convertible_to<std::uint64_t>;
};

// ---- Fields and raw operations (every policy) -----------------------------

/// The fields (dcas/fields.hpp) and the engine encoding of every link/flag
/// operation, written once for every policy, which derive from it.
/// Operations here are raw: no counts, no retirement. A policy that owes
/// bookkeeping around a successful or failed CAS (counted's count
/// transfer, deferred's ±1 deltas, where a displaced value goes) wraps the
/// raw call, or the raw 3-word CASNs dcas::install_if_live and
/// dcas::claim_mark_dead behind vinstall_if_live/vclaim_mark_dead.
template <typename Engine>
class cell_ops {
  public:
    using engine_type = Engine;

    template <typename Node>
    using link = dcas::link<Engine, Node>;
    using flag = dcas::flag<Engine>;
    template <typename T>
    using vslot = dcas::vslot<Engine, T>;

    template <typename Node>
    static Node* peek(link<Node>& A) noexcept {
        return dcas::decode_ptr<Node>(Engine::read(A.cell()));
    }
    template <typename Node>
    static void init_link(link<Node>& A, Node* v) noexcept {
        A.exclusive_set(v);
    }
    template <typename Node>
    static bool cas_link(link<Node>& A, Node* old0, Node* new0) {
        return Engine::cas(A.cell(), dcas::encode_ptr(old0), dcas::encode_ptr(new0));
    }
    template <typename Node>
    static bool dcas_link_flag(link<Node>& A, flag& F, Node* old0, bool old_flag, Node* new0,
                               bool new_flag) {
        return Engine::dcas(A.cell(), F.cell(), dcas::encode_ptr(old0),
                            flag::encode(old_flag), dcas::encode_ptr(new0),
                            flag::encode(new_flag));
    }
    static bool flag_load(flag& f) noexcept { return f.load(); }
    static bool flag_cas(flag& f, bool expected, bool desired) { return f.cas(expected, desired); }

    /// The guard of a policy whose protection is not per-slot state (an
    /// epoch pin, or nothing at all): reads are raw engine reads and the
    /// slot operations are no-ops. ebr, leaky and deferred derive their
    /// guards from it, adding their pin (and deferred its delta flush).
    class stateless_guard {
      public:
        void step() noexcept {}
        template <typename Node>
        Node* protect(std::size_t, link<Node>& src) noexcept {
            return peek(src);
        }
        template <typename Node>
        Node* traverse(std::size_t, link<Node>& src) noexcept {
            return peek(src);
        }
        template <typename Node>
        void protect_new(std::size_t, Node*) noexcept {}
        bool upgrade(std::size_t) noexcept { return true; }
        void advance(std::size_t, std::size_t) noexcept {}
        void clear(std::size_t) noexcept {}
        /// version / pointer / version: equal versions bracket a consistent
        /// pair. The loop stays in this body, not a shared helper, so it
        /// inlines into the store's read path.
        template <typename T>
        T* vprotect(std::size_t, vslot<T>& s, std::uint64_t& ver) {
            for (;;) {
                const std::uint64_t v = dcas::decode_count(Engine::read(s.version_cell()));
                const std::uint64_t raw = Engine::read(s.ptr_cell());
                if (dcas::decode_count(Engine::read(s.version_cell())) != v) continue;
                ver = v;
                return dcas::decode_ptr<T>(raw);
            }
        }
        template <typename T>
        T* vtraverse(std::size_t i, vslot<T>& s, std::uint64_t& ver) {
            return vprotect<T>(i, s, ver);
        }
    };
};

namespace detail {

// ---- smr_children / smr_link_count cross-check ----------------------------
//
// A node's smr_children(f) enumeration is the single source of truth for
// tracing policies (counted unravel, gc mark). Nothing in the language makes
// the enumeration stay in sync with the class's link/vslot members, so the
// repo checks it three ways:
//
//   * tools/lfrc_lint rule R5 compares the enumerated set against the
//     declared members at the source level (and checks smr_link_count);
//   * children_cover_all_links_v below is the compile-time face: the node
//     must declare `static constexpr std::size_t smr_link_count` and its
//     smr_children must accept a generic visitor — cores static_assert it,
//     so templates the linter cannot expand are still covered;
//   * debug/sim builds assert at trace time that the enumeration visits
//     exactly smr_link_count fields (visit_children below, the one walk
//     behind every policy's node_base adapter).

/// Counting visitor: accepts any field reference, only increments. The
/// invocability check below calls smr_children with it.
struct child_counter {
    std::size_t n = 0;
    template <typename Field>
    void operator()(Field&) noexcept { ++n; }
};

template <typename Node, typename = void>
struct has_smr_link_count : std::false_type {};
template <typename Node>
struct has_smr_link_count<
    Node, std::void_t<decltype(std::size_t{Node::smr_link_count})>>
    : std::true_type {};

template <typename Node, typename = void>
struct children_invocable : std::false_type {};
template <typename Node>
struct children_invocable<
    Node, std::void_t<decltype(std::declval<Node&>().smr_children(
              std::declval<child_counter&>()))>> : std::true_type {};

template <typename Node>
inline constexpr bool children_cover_all_links_v =
    has_smr_link_count<Node>::value && children_invocable<Node>::value;

/// Calls f on every field node.smr_children enumerates: the child walk of
/// counted's lfrc_visit_children, deferred's child release and gc_heap's
/// gc_trace.
template <typename Node, typename F>
void visit_children(Node& node, F&& f) {
    [[maybe_unused]] std::size_t visited = 0;
    node.smr_children([&f, &visited](auto& field) {
        ++visited;
        f(field);
    });
    if constexpr (has_smr_link_count<Node>::value) {
        assert(visited == Node::smr_link_count &&
               "smr_children visited a different number of fields "
               "than smr_link_count declares");
    }
}

}  // namespace detail

}  // namespace lfrc::smr
