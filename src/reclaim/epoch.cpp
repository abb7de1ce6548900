#include "reclaim/epoch.hpp"

#include <cassert>

namespace lfrc::reclaim {

namespace {
constexpr std::uint64_t active_bit = 1;

std::uint64_t make_state(std::uint64_t epoch) noexcept { return (epoch << 1) | active_bit; }
bool state_active(std::uint64_t s) noexcept { return (s & active_bit) != 0; }
std::uint64_t state_epoch(std::uint64_t s) noexcept { return s >> 1; }
}  // namespace

epoch_domain::~epoch_domain() {
    // Destruction requires quiescence (no thread inside a guard, none will
    // enter). Everything pending is then trivially past its grace period.
    for (auto& padded_slot : slots_) {
        retired_node* node = padded_slot->retired.exchange(nullptr, std::memory_order_acquire);  // lfrc-lint: order(epoch-retired-list)
        while (node != nullptr) {
            retired_node* next = node->next;
            node->deleter(node->object);
            delete node;
            node = next;
        }
    }
}

std::uint64_t epoch_domain::pending() const noexcept {
    std::int64_t total = 0;
    const std::size_t high = util::thread_registry::instance().high_water();
    for (std::size_t s = 0; s < high; ++s) {
        total += slots_[s]->pending_delta.load(std::memory_order_acquire);  // lfrc-lint: order(epoch-pending-counter)
    }
    return total > 0 ? static_cast<std::uint64_t>(total) : 0;
}

bool epoch_domain::quiescent() const noexcept {
    const std::size_t high = util::thread_registry::instance().high_water();
    for (std::size_t s = 0; s < high; ++s) {
        if (state_active(slots_[s]->state.load(std::memory_order_seq_cst))) return false;
    }
    return true;
}

void epoch_domain::register_aux(void (*clear_slot_fn)(std::size_t) noexcept) noexcept {
    assert(aux_clear_slot_.load(std::memory_order_relaxed) == nullptr &&  // lfrc-lint: order(aux-hook-install)
           "register_aux: an aux hook is already registered");
    aux_clear_slot_.store(clear_slot_fn, std::memory_order_release);  // lfrc-lint: order(aux-hook-install)
}

void epoch_domain::register_slot_reset(void (*fn)(std::size_t) noexcept) noexcept {
    assert(slot_reset_.load(std::memory_order_relaxed) == nullptr &&  // lfrc-lint: order(aux-hook-install)
           "register_slot_reset: a slot-reset hook is already registered");
    slot_reset_.store(fn, std::memory_order_release);  // lfrc-lint: order(aux-hook-install)
}

epoch_domain& epoch_domain::global() {
    // Intentionally leaked: retires (and their deleters) can happen during
    // static destruction, which must never race the domain's own teardown.
    static auto* domain = new epoch_domain;
    return *domain;
}

void epoch_domain::enter() noexcept {
    slot_record& rec = *slots_[util::thread_registry::instance().slot()];
    if (rec.depth++ != 0) return;  // nested: already pinned
    // Announce/validate loop: after this, our announced epoch is at most one
    // behind the global epoch at every later instant (see header comment).
    for (;;) {
        const std::uint64_t e = global_epoch_->load(std::memory_order_seq_cst);
        rec.state.store(make_state(e), std::memory_order_seq_cst);
        if (global_epoch_->load(std::memory_order_seq_cst) == e) return;
    }
}

void epoch_domain::exit() noexcept {
    slot_record& rec = *slots_[util::thread_registry::instance().slot()];
    if (--rec.depth != 0) return;
    rec.state.store(0, std::memory_order_release);  // lfrc-lint: order(slot-unpin)
}

void epoch_domain::retire(void* object, void (*deleter)(void*)) {
    const std::size_t slot = util::thread_registry::instance().slot();
    push_retired_chain(slot, new retired_node{{}, nullptr, global_epoch(), object, deleter});
    slot_record& rec = *slots_[slot];
    rec.pending_delta.fetch_add(1, std::memory_order_relaxed);  // lfrc-lint: order(epoch-pending-counter)
    if (++rec.retires_since_scan >= scan_threshold && !rec.reclaiming) {
        rec.retires_since_scan = 0;
        reclaim_some(slot, /*force=*/false);
    }
}

void epoch_domain::push_retired_chain(std::size_t slot, retired_node* chain_head) noexcept {
    retired_node* tail = chain_head;
    while (tail->next != nullptr) tail = tail->next;
    std::atomic<retired_node*>& head = slots_[slot]->retired;
    retired_node* old_head = head.load(std::memory_order_relaxed);  // lfrc-lint: order(epoch-retired-list)
    do {
        tail->next = old_head;
    } while (!head.compare_exchange_weak(old_head, chain_head, std::memory_order_acq_rel));  // lfrc-lint: order(epoch-retired-list)
}

bool epoch_domain::try_advance() noexcept {
    const std::uint64_t e = global_epoch_->load(std::memory_order_seq_cst);
    const std::size_t high = util::thread_registry::instance().high_water();
    for (std::size_t s = 0; s < high; ++s) {
        const std::uint64_t st = slots_[s]->state.load(std::memory_order_seq_cst);
        if (state_active(st) && state_epoch(st) != e) return false;
    }
    std::uint64_t expected = e;
    return global_epoch_->compare_exchange_strong(expected, e + 1,
                                                  std::memory_order_seq_cst);
}

auto epoch_domain::free_eligible(retired_node* head, std::uint64_t eligible_before,
                                 std::size_t& freed) -> retired_node* {
    // Deleters run on this thread; any retire they make lands on our own
    // slot, behind the latch.
    slot_record& self = *slots_[util::thread_registry::instance().slot()];
    self.reclaiming = true;
    retired_node* survivors = nullptr;
    while (head != nullptr) {
        retired_node* next = head->next;
        if (head->epoch < eligible_before) {
            head->deleter(head->object);
            delete head;
            self.pending_delta.fetch_sub(1, std::memory_order_relaxed);  // lfrc-lint: order(epoch-pending-counter)
            ++freed;
        } else {
            head->next = survivors;
            survivors = head;
        }
        head = next;
    }
    self.reclaiming = false;
    return survivors;
}

std::size_t epoch_domain::reclaim_some(std::size_t slot, bool force) {
    try_advance();
    const std::uint64_t g = global_epoch();
    if (g < grace_epochs) return 0;
    slot_record& rec = *slots_[slot];
    if (!force && rec.last_scan_epoch.load(std::memory_order_relaxed) == g) {  // lfrc-lint: order(unpaired-owner-scan-cache)
        return 0;  // nothing new can be eligible; avoid an O(pending) no-op walk
    }
    rec.last_scan_epoch.store(g, std::memory_order_relaxed);  // lfrc-lint: order(unpaired-owner-scan-cache)
    retired_node* stolen = rec.retired.exchange(nullptr, std::memory_order_acq_rel);  // lfrc-lint: order(epoch-retired-list)
    std::size_t freed = 0;
    retired_node* survivors = free_eligible(stolen, g - grace_epochs + 1, freed);
    // Re-home survivors (as one chain, one CAS) onto our own slot — we
    // might be draining another thread's leftovers via drain_all.
    if (survivors != nullptr) {
        push_retired_chain(util::thread_registry::instance().slot(), survivors);
    }
    return freed;
}

void epoch_domain::clear_slot(std::size_t s) noexcept {
    // Flush any layered per-slot state (smr::deferred's delta table) while
    // the slot still counts as pinned: the aux flush applies count deltas
    // whose safety argument assumes the owner held its pin when they were
    // recorded. The abandoned fiber never runs again, so this is the
    // thread-exit flush it will never perform itself.
    if (auto* f = aux_clear_slot_.load(std::memory_order_acquire)) f(s);  // lfrc-lint: order(aux-hook-install)
    // Then invalidate engine-local per-slot state (descriptor sequences):
    // after this, stale helpers racing the teardown can no longer complete
    // the abandoned slot's operations.
    if (auto* f = slot_reset_.load(std::memory_order_acquire)) f(s);  // lfrc-lint: order(aux-hook-install)
    slot_record& rec = *slots_[s];
    rec.depth = 0;
    rec.reclaiming = false;
    rec.state.store(0, std::memory_order_release);  // lfrc-lint: order(slot-unpin)
}

void epoch_domain::clear_slots(const std::size_t* slots, std::size_t n) noexcept {
    for (std::size_t i = 0; i < n; ++i) clear_slot(slots[i]);
}

std::size_t epoch_domain::drain_all() {
    std::size_t freed = 0;
    const std::size_t high = util::thread_registry::instance().high_water();
    for (std::size_t s = 0; s < high; ++s) freed += reclaim_some(s, /*force=*/true);
    return freed;
}

std::uint64_t epoch_domain::drain(int rounds) {
    const std::uint64_t passes =
        rounds > 0 ? static_cast<std::uint64_t>(rounds) * cascade_passes : 0;
    std::uint64_t idle = 0;
    for (std::uint64_t i = 0; i < passes && pending() != 0; ++i) {
        idle = drain_all() != 0 ? 0 : idle + 1;
        if (idle > grace_epochs) break;
    }
    return pending();
}

}  // namespace lfrc::reclaim
