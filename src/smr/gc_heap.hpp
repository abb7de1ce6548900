// The gc_heap policy: containers whose reclamation is an actual garbage
// collector — the repo's toy stop-the-world mark-sweep heap (gc::heap).
//
// This is the paper's *starting point*: the §3 "before" forms assume a GC,
// and LFRC's pitch is converting them away from it. Expressing the GC as
// just another smr policy closes the loop — the same generic core runs
// "before" and "after" forms, and the conformance suite diff is the
// conversion cost.
//
// Scheme mapping:
//   protection   guard slots are gc::local shadow-stack roots; any node a
//                slot holds is reachable at the next collection. step()
//                parks at a safepoint so other threads can collect.
//   tracing      node_base provides gc_trace, marking every link cell
//                the node's smr_children enumerates; container head
//                cells are registered as global roots (register_root).
//   retire       nothing to do — unlinked nodes become garbage when the
//                last slot lets go.
//   engine       locked_engine, per the gc contract: collections must see
//                clean cell values, so the descriptor-publishing
//                mcas_engine is out (its descriptors would confuse
//                mark_cell and resurrect mid-operation states).
//
// Threading contract (inherited from gc::heap): mutating operations and
// guards require the calling thread to hold a gc::heap::attach_scope
// (thread_scope wraps one for container ctors that allocate); containers
// must outlive the heap's last collection because global roots cannot be
// deregistered.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "dcas/cell.hpp"
#include "dcas/locked_engine.hpp"
#include "gc/heap.hpp"
#include "smr/policy.hpp"

namespace lfrc::smr {

class gc_heap : public cell_ops<dcas::locked_engine> {
  public:
    explicit gc_heap(gc::heap& h) noexcept : heap_(&h) {}

    static constexpr const char* name() noexcept { return "gc-heap"; }
    static constexpr bool counted_links = false;
    static constexpr bool has_lazy_traverse = true;
    static constexpr std::size_t guard_slots = 4;

    /// Provides the member gc_traits<Node> looks for: trace = mark every
    /// link cell smr_children enumerates (flags are never enumerated —
    /// mark_cell on a non-pointer cell is out of contract — and a gc node
    /// holds no vslot: vprotect below refuses them).
    template <typename Node>
    struct node_base {
        void gc_trace(gc::marker& m) const {
            detail::visit_children(*const_cast<Node*>(static_cast<const Node*>(this)),
                                   [&m](auto& field) { m.mark_cell(field.cell()); });
        }
    };

    /// A gc::local root keeps the fresh node alive until the publishing
    /// CAS makes it reachable from the structure. Non-movable (gc::local's
    /// strict-LIFO shadow stack); rely on guaranteed copy elision.
    template <typename Node>
    class owner {
      public:
        Node* get() const noexcept { return l_.get(); }
        Node* operator->() const noexcept { return l_.get(); }
        explicit operator bool() const noexcept { return l_.get() != nullptr; }

      private:
        friend gc_heap;
        owner(gc::heap& h, Node* p) : l_(h, p) {}
        gc::local<Node> l_;
    };

    template <typename Node, typename... Args>
    owner<Node> make_owner(Args&&... args) {
        gc::heap& h = *heap_;
        // The node is unrooted between allocate's return and the owner's
        // push_root, but this thread is attached and hits no safepoint in
        // between, so no collection can run across the gap.
        return owner<Node>(h, h.template allocate<Node>(std::forward<Args>(args)...));
    }
    template <typename Node>
    void publish_ok(owner<Node>&) noexcept {}  // reachability took over

    class thread_scope {
      public:
        explicit thread_scope(gc_heap& p) : attach_(*p.heap_) {}

      private:
        gc::heap::attach_scope attach_;
    };

    class guard {
      public:
        explicit guard(gc_heap& p) noexcept
            : heap_(*p.heap_), s0_(heap_), s1_(heap_), s2_(heap_), s3_(heap_) {}
        guard(const guard&) = delete;
        guard& operator=(const guard&) = delete;

        /// The per-iteration safepoint: the one place a container loop
        /// parks for a stop-the-world collection.
        void step() { heap_.safepoint(); }

        template <typename Node>
        Node* protect(std::size_t i, link<Node>& src) {
            Node* p = gc_heap::peek(src);
            slot(i) = reinterpret_cast<char*>(p);
            return p;
        }
        template <typename Node>
        Node* traverse(std::size_t i, link<Node>& src) {
            return protect<Node>(i, src);
        }
        template <typename Node>
        void protect_new(std::size_t i, Node* fresh) {
            slot(i) = reinterpret_cast<char*>(fresh);
        }
        bool upgrade(std::size_t) noexcept { return true; }
        void advance(std::size_t dst, std::size_t src) {
            slot(dst) = slot(src).get();
            slot(src) = nullptr;
        }
        void clear(std::size_t i) { slot(i) = nullptr; }

        // The kv store's versioned value slots are not offered on the gc
        // policy (the store is the GC-independence showcase; E8 owns the
        // gc-vs-lfrc comparison). Instantiating these is a contract error.
        template <typename T>
        T* vprotect(std::size_t, vslot<T>&, std::uint64_t&) {
            static_assert(!sizeof(T), "kv value slots are not supported on smr::gc_heap");
            return nullptr;
        }
        template <typename T>
        T* vtraverse(std::size_t, vslot<T>&, std::uint64_t&) {
            static_assert(!sizeof(T), "kv value slots are not supported on smr::gc_heap");
            return nullptr;
        }

      private:
        // Four named locals (gc::local is neither copyable nor movable, so
        // no array), destroyed in reverse construction order — LIFO, as the
        // shadow stack requires.
        gc::local<char>& slot(std::size_t i) {
            switch (i) {
                case 0: return s0_;
                case 1: return s1_;
                case 2: return s2_;
                default: return s3_;
            }
        }
        gc::heap& heap_;
        gc::local<char> s0_, s1_, s2_, s3_;
    };

    // ---- reclamation hooks (link/flag operations are cell_ops') ---------

    template <typename Node>
    static void retire_unlinked(Node*) noexcept {}  // unreachable = garbage

    template <typename Node>
    static void reset_chain(link<Node>& head) noexcept {
        head.exclusive_set(nullptr);  // the collector sweeps the chain
    }

    /// Container head cells become global GC roots. gc::heap::add_root is
    /// permanent — the container (and its cells) must outlive the heap's
    /// collections, same as the pre-policy gc containers.
    template <typename Node>
    void register_root(link<Node>& A) {
        dcas::cell* c = &A.cell();
        heap_->add_root([c](gc::marker& m) { m.mark_cell(*c); });
    }

    std::uint64_t pending() const noexcept { return 0; }
    std::uint64_t drain(int) noexcept { return 0; }

  private:
    gc::heap* heap_;
};

}  // namespace lfrc::smr
