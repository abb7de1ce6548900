#include "gc/heap.hpp"

#include <cassert>
#include <cstdlib>

#include "alloc/stats.hpp"
#include "util/stopwatch.hpp"

namespace lfrc::gc {

// ---- marker -----------------------------------------------------------------

void marker::mark(const void* payload) {
    if (payload == nullptr) return;
    heap::object_header* h = heap::header_of(payload);
    if (h->marked) return;
    h->marked = true;
    work_.push_back(const_cast<void*>(payload));
}

void marker::mark_cell(const dcas::cell& c) {
    // A raw read, and sound: gc_heap runs on locked_engine, which has no
    // helpers to leave a descriptor in a cell, and marking runs at a
    // stop-the-world safepoint, so no mutator is mid-operation on c.
    const std::uint64_t v = c.raw().load(std::memory_order_relaxed);
    assert(dcas::is_clean_value(v) &&
           "GC-traced cells must use the locked engine (see gc/heap.hpp)");
    mark(reinterpret_cast<const void*>(v));
}

void marker::drain() {
    while (!work_.empty()) {
        void* payload = work_.back();
        work_.pop_back();
        heap::header_of(payload)->trace_fn(payload, *this);
    }
}

// ---- heap -------------------------------------------------------------------

heap::heap(std::size_t collect_threshold_bytes)
    : threshold_bytes_(collect_threshold_bytes) {}

heap::~heap() {
    // Quiescence required: no attached threads remain.
    object_header* h = all_objects_.load(std::memory_order_acquire);
    while (h != nullptr) {
        object_header* next = h->next;
        free_object(h);
        h = next;
    }
}

heap::attach_scope::attach_scope(heap& h)
    : heap_(h), slot_(util::thread_registry::instance().slot()) {
    std::unique_lock lock(heap_.park_mutex_);
    // Don't attach in the middle of someone else's collection.
    heap_.park_cv_.wait(lock, [&] { return !heap_.gc_request_.load(); });
    assert(!heap_.threads_[slot_].attached && "thread already attached to this heap");
    heap_.threads_[slot_].attached = true;
    ++heap_.attached_count_;
}

heap::attach_scope::~attach_scope() {
    std::lock_guard lock(heap_.park_mutex_);
    assert(heap_.threads_[slot_].roots.empty() &&
           "gc::local roots must not outlive the attach_scope");
    heap_.threads_[slot_].attached = false;
    --heap_.attached_count_;
    // A collector may be waiting for this thread to park; detaching counts.
    heap_.park_cv_.notify_all();
}

void heap::safepoint() {
    if (!gc_request_.load(std::memory_order_acquire)) return;
    std::unique_lock lock(park_mutex_);
    if (!gc_request_.load()) return;
    ++parked_count_;
    park_cv_.notify_all();
    park_cv_.wait(lock, [&] { return !gc_request_.load(); });
    --parked_count_;
}

void heap::push_root(void* const* slot) {
    threads_[util::thread_registry::instance().slot()].roots.push_back(slot);
}

void heap::pop_root() {
    threads_[util::thread_registry::instance().slot()].roots.pop_back();
}

void heap::add_root(std::function<void(marker&)> provider) {
    std::lock_guard lock(roots_mutex_);
    global_roots_.push_back(std::move(provider));
}

void* heap::allocate_raw(std::size_t payload_size, void (*trace_fn)(const void*, marker&),
                         void (*destroy_fn)(void*)) {
    assert(threads_[util::thread_registry::instance().slot()].attached &&
           "allocate() requires an attach_scope");
    safepoint();
    if (bytes_since_gc_.load(std::memory_order_relaxed) >= threshold_bytes_) {
        collect_now();
    }

    const std::size_t total = header_bytes + payload_size;
    void* raw = ::operator new(total);
    auto* h = static_cast<object_header*>(raw);
    h->trace_fn = trace_fn;
    h->destroy_fn = destroy_fn;
    h->payload_size = payload_size;
    h->marked = false;

    object_header* head = all_objects_.load(std::memory_order_relaxed);
    do {
        h->next = head;
    } while (!all_objects_.compare_exchange_weak(head, h, std::memory_order_acq_rel));

    live_objects_.fetch_add(1, std::memory_order_relaxed);
    live_bytes_.fetch_add(total, std::memory_order_relaxed);
    bytes_since_gc_.fetch_add(total, std::memory_order_relaxed);
    alloc::note_alloc(total);
    return payload_of(h);
}

void heap::free_object(object_header* h) {
    h->destroy_fn(payload_of(h));
    const std::size_t total = header_bytes + h->payload_size;
    live_objects_.fetch_sub(1, std::memory_order_relaxed);
    live_bytes_.fetch_sub(total, std::memory_order_relaxed);
    alloc::note_free(total);
    ::operator delete(static_cast<void*>(h));
}

void heap::collect_now() {
    // If another thread is collecting, just park at a safepoint instead:
    // blocking on gc_mutex_ here would deadlock the active collector, which
    // is waiting for us to park.
    std::unique_lock gc_lock(gc_mutex_, std::try_to_lock);
    if (!gc_lock.owns_lock()) {
        safepoint();
        return;
    }
    collect_locked();
}

void heap::collect_locked() {
    util::stopwatch pause;

    // Stop the world: wait for every other attached thread to park.
    {
        std::unique_lock lock(park_mutex_);
        gc_request_.store(true, std::memory_order_seq_cst);
        park_cv_.wait(lock, [&] { return parked_count_ + 1 >= attached_count_; });
    }

    // Mark.
    marker m{*this};
    {
        std::lock_guard lock(roots_mutex_);
        for (auto& provider : global_roots_) provider(m);
    }
    const std::size_t high = util::thread_registry::instance().high_water();
    for (std::size_t s = 0; s < high; ++s) {
        if (!threads_[s].attached) continue;
        for (void* const* slot : threads_[s].roots) m.mark(*slot);
    }
    m.drain();

    // Sweep: rebuild the all-objects list from survivors.
    std::uint64_t freed = 0;
    object_header* h = all_objects_.exchange(nullptr, std::memory_order_acq_rel);
    object_header* survivors = nullptr;
    while (h != nullptr) {
        object_header* next = h->next;
        if (h->marked) {
            h->marked = false;
            h->next = survivors;
            survivors = h;
        } else {
            free_object(h);
            ++freed;
        }
        h = next;
    }
    // Reattach survivors below anything allocated concurrently (there is
    // nothing concurrent — world is stopped — but stay CAS-correct anyway).
    while (survivors != nullptr) {
        object_header* next = survivors->next;
        object_header* head = all_objects_.load(std::memory_order_relaxed);
        do {
            survivors->next = head;
        } while (!all_objects_.compare_exchange_weak(head, survivors,
                                                     std::memory_order_acq_rel));
        survivors = next;
    }
    bytes_since_gc_.store(0, std::memory_order_relaxed);

    const std::uint64_t pause_ns = pause.elapsed_ns();
    {
        std::lock_guard lock(stats_mutex_);
        ++stats_.collections;
        stats_.objects_freed += freed;
        stats_.pauses.record(pause_ns);
        if (pause_ns > stats_.max_pause_ns) stats_.max_pause_ns = pause_ns;
    }

    // Restart the world.
    {
        std::lock_guard lock(park_mutex_);
        gc_request_.store(false, std::memory_order_seq_cst);
        park_cv_.notify_all();
    }
}

heap::gc_stats heap::stats() {
    std::lock_guard lock(stats_mutex_);
    gc_stats out = stats_;
    out.objects_live = live_objects();
    out.bytes_live = live_bytes();
    return out;
}

}  // namespace lfrc::gc
