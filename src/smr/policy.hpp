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
// Two families implement them. counted and borrowed are domain-backed
// (borrowed derives from counted and owns only its guard); the other five
// are cell-backed and derive their fields, link/flag/vslot operations and,
// for ebr/leaky/deferred, their guard from cell_ops below.
//
// This mirrors Meyer & Wolff's observation that reclamation factors out of
// a lock-free structure behind a guard/retire interface, and Anderson/
// Blelloch/Wei's that counted and manual SMR are interchangeable behind it.
//
// ---- The policy contract (duck-typed; `policy` below checks the core) ----
//
// Types:
//   P::link<Node>   one-word pointer field linking Node objects. For the
//                   domain-backed policies this is Domain::ptr_field (the
//                   count lives in the pointee); for the cell-backed ones
//                   it is a raw dcas::cell (cell_link below).
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

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "dcas/cell.hpp"
#include "gc/heap.hpp"

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

// ---- Cell-backed fields and operations (manual, gc and deferred) ----------
//
// The policies fall into two families. The domain-backed ones (counted,
// and borrowed, which derives from it) get their fields and operations
// from the domain (ptr_field, flag_field, ll_field). Every other policy
// stores plain encoded values in dcas::cells, so the fields are
// sim-instrumented for free, and derives its operations from cell_ops.

/// One-word pointer link. All concurrent access goes through the policy's
/// engine; exclusive_get/exclusive_set are for single-owner phases only.
template <typename Node>
class cell_link {
  public:
    cell_link() noexcept = default;

    Node* exclusive_get() const noexcept {
        return dcas::decode_ptr<Node>(cell_.raw().load(std::memory_order_acquire));  // lfrc-lint: order(cell-publish)
    }
    void exclusive_set(Node* p) noexcept {
        cell_.raw().store(dcas::encode_ptr(p), std::memory_order_release);  // lfrc-lint: order(cell-publish)
    }

    void gc_mark(gc::marker& m) const { m.mark_cell(cell_); }

    dcas::cell& cell() noexcept { return cell_; }
    const dcas::cell& cell() const noexcept { return cell_; }

  private:
    dcas::cell cell_{0};
};

/// One-word boolean flag, encoded like a count so engine descriptors can
/// never be mistaken for a value. Never enumerated by smr_children (it
/// holds no pointer), hence no gc_mark.
template <typename Engine>
class cell_flag {
  public:
    cell_flag() noexcept : cell_(dcas::encode_count(0)) {}

    bool load() noexcept { return dcas::decode_count(Engine::read(cell_)) != 0; }
    bool cas(bool expected, bool desired) noexcept {
        return Engine::cas(cell_, encode(expected), encode(desired));
    }

    static std::uint64_t encode(bool b) noexcept { return dcas::encode_count(b ? 1 : 0); }

    dcas::cell& cell() noexcept { return cell_; }

  private:
    dcas::cell cell_;
};

/// Versioned pointer slot: a (pointer, version) cell pair, the manual-SMR
/// mirror of the domain's ll_field. Reads validate version/pointer/version;
/// writes are engine CASNs that bump the version, so ABA on the pointer
/// alone can never satisfy a conditional store.
template <typename T>
class cell_vslot {
  public:
    cell_vslot() noexcept : version_(dcas::encode_count(0)) {}

    T* exclusive_get() const noexcept {
        return dcas::decode_ptr<T>(ptr_.raw().load(std::memory_order_acquire));  // lfrc-lint: order(cell-publish)
    }

    void gc_mark(gc::marker& m) const { m.mark_cell(ptr_); }

    dcas::cell& ptr_cell() noexcept { return ptr_; }
    dcas::cell& version_cell() noexcept { return version_; }

  private:
    dcas::cell ptr_{0};
    dcas::cell version_;
};

/// The cell encoding of every link/flag/vslot operation, written once for
/// the cell-backed policies (manual_policy, gc_heap, deferred), which
/// derive from it. Operations here are raw: no counts, no retirement. A
/// policy that owes bookkeeping around a successful or failed CAS (where a
/// displaced value goes, deferred's ±1 deltas) wraps the raw call.
template <typename Engine>
class cell_ops {
  public:
    using engine_type = Engine;

    template <typename Node>
    using link = cell_link<Node>;
    using flag = cell_flag<Engine>;
    template <typename T>
    using vslot = cell_vslot<T>;

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

  protected:
    /// CASN {ptr old->new, version v->v+1, flag false->false}: install a
    /// value iff the slot is unchanged AND the entry is still live — the
    /// cell mirror of the domain's store_conditional_if_flag.
    template <typename T>
    static bool install_if_live(vslot<T>& s, std::uint64_t ver, T* old0, T* new0, flag& dead) {
        typename Engine::casn_op ops[3] = {
            {&s.ptr_cell(), dcas::encode_ptr(old0), dcas::encode_ptr(new0)},
            {&s.version_cell(), dcas::encode_count(ver), dcas::encode_count(ver + 1)},
            {&dead.cell(), flag::encode(false), flag::encode(false)},
        };
        return Engine::casn(ops, 3);
    }
    /// CASN {ptr old->null, version v->v+1, flag false->true}: the erase
    /// claim — take the value and kill the entry in one step, so a racing
    /// write can never land in a claimed entry (store.hpp's invariant).
    template <typename T>
    static bool claim_mark_dead(vslot<T>& s, std::uint64_t ver, T* old0, flag& dead) {
        typename Engine::casn_op ops[3] = {
            {&s.ptr_cell(), dcas::encode_ptr(old0), dcas::encode_ptr(static_cast<T*>(nullptr))},
            {&s.version_cell(), dcas::encode_count(ver), dcas::encode_count(ver + 1)},
            {&dead.cell(), flag::encode(false), flag::encode(true)},
        };
        return Engine::casn(ops, 3);
    }
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
//     exactly smr_link_count fields (counted.hpp / gc_heap.hpp adapters).

/// Counting visitor: accepts any field reference, only increments. Drives
/// both the invocability check and the trace-time count assertion.
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

}  // namespace detail

}  // namespace lfrc::smr
