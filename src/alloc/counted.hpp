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

/// Mixin: derive to get allocation-counted operator new/delete. This is THE
/// allocation seam: every LFRC-managed node type (smr::manual node_base,
/// smr::deferred_node, lfrc::domain object) inherits these, so rewiring
/// here re-plumbs make_owner / domain::make / every reclaimer deleter in
/// one place with zero call-site changes. `sz` is passed by the compiler,
/// so derived-class sizes are exact.
///
/// Outside the simulator, storage comes from the process-wide
/// alloc::arena — per-registry-slot size-class slabs with O(1) recycled
/// frees (alloc/arena.hpp). The note_alloc/note_free calls stay
/// per-object, so scope_check and the E4 footprint sample keep their
/// logical-object accounting even though the arena's slabs themselves are
/// untracked.
///
/// Under -DLFRC_SIM this is instead the shadow-heap seam: LFRC-managed
/// objects come from the sim arena during a schedule, frees are quarantined
/// instead of recycled, and double frees are flagged (sim/runtime.hpp) —
/// arena recycling must not mask model-level UAFs.
struct counted_base {
    static void* operator new(std::size_t sz) {
#if defined(LFRC_SIM)
        void* p = sim::managed_alloc(sz);
#else
        void* p = arena::instance().allocate(sz);
#endif
        note_alloc(sz);
        return p;
    }
    static void operator delete(void* p, std::size_t sz) noexcept {
        note_free(sz);
#if defined(LFRC_SIM)
        sim::managed_free(p, sz);
#else
        arena::instance().deallocate(p, sz);
#endif
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
