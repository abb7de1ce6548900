// Umbrella header for the LFRC library.
//
//   #include "lfrc/lfrc.hpp"
//   using dom = lfrc::domain;              // lock-free MCAS-backed domain
//   struct node : dom::object { ... };
//   dom::local_ptr<node> p = dom::make<node>(...);
//
// See README.md for the full tour and src/lfrc/domain.hpp for the
// operation-by-operation mapping to the paper.
#pragma once

#include "dcas/locked_engine.hpp"
#include "dcas/mcas_engine.hpp"
#include "lfrc/counters.hpp"
#include "lfrc/domain.hpp"
#include "lfrc/paper_api.hpp"

namespace lfrc {

/// The default domain: lock-free DCAS emulation.
using domain = basic_domain<dcas::mcas_engine>;

/// Blocking-emulation domain; differential-testing oracle and E3 baseline.
using locked_domain = basic_domain<dcas::locked_engine>;

/// Drive the deferred physical frees to completion. Call at quiescence
/// (tests, footprint sampling, store shard drains) — concurrent use is safe
/// but may not reach zero while other threads pin epochs (including held
/// borrow_ptrs). Returns the residual pending count: 0 means every deferred
/// free ran; nonzero means something still pins an epoch and the caller
/// should not assume the heap is quiesced.
///
/// The loop is reclaim::epoch_domain::drain, bounded two ways so a drain
/// can never spin forever: `rounds` caps the work at rounds × 4,096
/// reclaim passes, and a stall detector exits once a few consecutive
/// passes free nothing — a pin is held and more passes cannot help.
inline std::uint64_t flush_deferred_frees(int rounds = 16) {
    return reclaim::epoch_domain::global().drain(rounds);
}

}  // namespace lfrc
