// Counted allocation: the counted_base mixin, whose operator new/delete
// report to alloc::stats. Every LFRC-managed object routes through it, so
// all footprint numbers are measured with the same instrument.
#pragma once

#include <cstddef>
#include <new>

#include "alloc/arena.hpp"
#include "alloc/stats.hpp"

#if defined(LFRC_SIM)
#include "sim/runtime.hpp"
#endif

namespace lfrc::alloc {

/// The allocation seam's routing half: operator new/delete that take
/// storage from the process-wide alloc::arena — per-registry-slot
/// size-class slabs with O(1) recycled frees (alloc/arena.hpp).
///
/// Under -DLFRC_SIM this is instead the shadow-heap seam: objects come from
/// the sim arena during a schedule, frees are quarantined instead of
/// recycled, and double frees are flagged (sim/runtime.hpp) — arena
/// recycling must not mask model-level UAFs, and the arena's instrumented
/// heads would add yield points that depend on earlier schedules.
///
/// No accounting: derive from it directly only for infrastructure records
/// that must stay out of live_objects()/live_bytes() (epoch_domain's
/// retire records). Types deriving from it must not be over-aligned.
struct storage_base {
    static void* operator new(std::size_t sz) { return route_allocate(sz); }
    static void operator delete(void* p, std::size_t sz) noexcept { route_free(p, sz); }

  protected:
    // Plain functions, not the operators: GCC pairs each class's operator
    // new with its own operator delete and warns when counted_base's
    // pointer reaches storage_base's delete.
    static void* route_allocate(std::size_t sz) {
#if defined(LFRC_SIM)
        return sim::managed_alloc(sz);
#else
        return arena::instance().allocate(sz);
#endif
    }
    static void route_free(void* p, std::size_t sz) noexcept {
#if defined(LFRC_SIM)
        sim::managed_free(p, sz);
#else
        arena::instance().deallocate(p, sz);
#endif
    }
};

/// Mixin: derive to get allocation-counted operator new/delete. This is THE
/// allocation seam: every LFRC-managed node type (smr::manual node_base,
/// smr::deferred_node, lfrc::domain object) inherits these, so rewiring
/// here re-plumbs make_owner / domain::make / every reclaimer deleter in
/// one place with zero call-site changes. `sz` is passed by the compiler,
/// so derived-class sizes are exact.
///
/// Storage routes through storage_base; the note_alloc/note_free calls stay
/// per-object, so scope_check and the E4 footprint sample keep their
/// logical-object accounting even though the arena's slabs themselves are
/// untracked.
struct counted_base : storage_base {
    static void* operator new(std::size_t sz) {
        void* p = route_allocate(sz);
        note_alloc(sz);
        return p;
    }
    static void operator delete(void* p, std::size_t sz) noexcept {
        note_free(sz);
        route_free(p, sz);
    }
    // Over-aligned node types bypass the arena (its blocks are 16-aligned
    // at most). No such node type exists today; these overloads keep the
    // seam safe if one appears.
    static void* operator new(std::size_t sz, std::align_val_t al) {
        void* p = ::operator new(sz, al);
        note_alloc(sz);
        return p;
    }
    static void operator delete(void* p, std::size_t sz, std::align_val_t al) noexcept {
        note_free(sz);
        ::operator delete(p, al);
    }
};

}  // namespace lfrc::alloc
