// GC-dependent Treiber stack and Michael-Scott queue over the toy
// stop-the-world collector — the §3 "before" forms of the containers whose
// LFRC "after" forms are stack_core / queue_core over smr::counted. Both are
// the generic cores instantiated with the smr::gc_heap policy; "assume a
// GC" is now just a template argument.
//
// Note what the GC buys: the classic Treiber ABA (pop's CAS succeeding on a
// recycled head) cannot happen because a node referenced from any thread's
// shadow stack (a guard slot) is never collected, hence never recycled.
//
// Contract (same as snark_deque_gc): callers are attached to the heap, poll
// safepoints via these operations' retry loops, and all shared cells hold
// clean values when the world is stopped. Root providers registered with
// the heap are not deregistrable, so a container must outlive every
// collection on its heap (destroy heap and container together).
#pragma once

#include "containers/queue_core.hpp"
#include "containers/stack_core.hpp"
#include "smr/gc_heap.hpp"

namespace lfrc::containers {

template <typename V>
class gc_stack : public stack_core<V, smr::gc_heap> {
  public:
    explicit gc_stack(gc::heap& h) : stack_core<V, smr::gc_heap>(smr::gc_heap(h)) {}
};

template <typename V>
class gc_queue : public queue_core<V, smr::gc_heap> {
  public:
    explicit gc_queue(gc::heap& h) : queue_core<V, smr::gc_heap>(smr::gc_heap(h)) {}
};

}  // namespace lfrc::containers
