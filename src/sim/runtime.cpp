// lfrc::sim implementation: ucontext fiber scheduler + shadow heap.
//
// Why fibers and not real threads: a model violation must be able to
// *abandon* a virtual thread in the middle of a noexcept frame (most LFRC
// hot paths are noexcept — throwing through them would std::terminate). A
// fiber is abandoned by swapcontext-ing away and simply never resuming it;
// its frozen stack is released at schedule teardown. With one OS thread
// multiplexing every virtual thread there is also exactly one runnable
// context at any instant, which is what makes each instrumented access an
// atomic step of the model.
//
// Scheduling protocol: every sim::atomic operation calls memory_access(),
// which yields to the scheduler *before* performing the access. The
// scheduler picks the next runnable fiber with the schedule's seeded RNG
// (optionally preemption-bounded, CHESS-style) and swaps into it. Yields
// arriving through util::cooperative_yield (backoff, spin_barrier) are
// *voluntary*: switching away from a voluntarily yielding fiber is not
// charged against the preemption bound, so bounded exploration cannot
// livelock a fiber that is spinning for a peer.
//
// Shadow heap: LFRC-managed allocations (alloc::counted_base) bump-allocate
// from a process-persistent arena while a schedule runs, so block addresses
// are identical across schedules (address-ordered code — the MCAS entry
// sort — stays schedule-deterministic). Frees quarantine the block: bytes
// stay mapped and intact, so a *plain* stale read (the paper's benign
// read-of-freed-rc, modeled deliberately) returns stale-but-valid data,
// while every *instrumented* access to a quarantined block is flagged as a
// use-after-free and a second free of the same block as a double-free.
#include "sim/runtime.hpp"

#include <ucontext.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "reclaim/epoch.hpp"
#include "util/random.hpp"
#include "util/sim_hook.hpp"
#include "util/thread_registry.hpp"

namespace lfrc::sim {

namespace {

constexpr std::size_t k_stack_bytes = 256 * 1024;
constexpr std::size_t k_arena_bytes = std::size_t{16} << 20;

// Process-persistent arena backing the shadow heap; the offset resets per
// schedule but the base never moves (and is intentionally never returned to
// the OS), so the Nth allocation of every schedule has the same address.
char* persistent_arena() {
    static char* arena = static_cast<char*>(::operator new(k_arena_bytes));
    return arena;
}

struct shadow_block {
    std::size_t size = 0;
    bool freed = false;
};

struct vthread {
    std::string label;
    std::function<void()> body;
    ucontext_t ctx{};
    std::unique_ptr<char[]> stack;
    enum class st : std::uint8_t { ready, finished, abandoned };
    st status = st::ready;
    std::size_t slot = util::thread_registry::max_threads;
};

struct run_state {
    std::thread::id tid;  // the scheduler's OS thread; everything runs on it
    ucontext_t sched_ctx{};
    std::vector<vthread> fibers;
    int current = -1;     // index of the running fiber, -1 on the scheduler
    int last_ran = -1;
    bool executing = false;

    std::uint64_t schedule_seed = 0;
    util::xoshiro256 rng{1};
    std::uint64_t steps = 0;
    std::uint64_t max_steps = 0;
    int preemption_bound = -1;
    int preemptions = 0;
    bool voluntary = false;  // the pending yield came from backoff/barrier

    std::vector<std::uint8_t> trace;  // fiber chosen at each scheduler turn

    bool failed = false;
    std::string fail_kind;
    std::string fail_report;

    // Shadow heap.
    bool shadow_active = false;
    char* arena = nullptr;
    std::size_t arena_size = 0;
    std::size_t arena_used = 0;
    std::map<char*, shadow_block> blocks;
    std::size_t live_blocks = 0;
};

// Atomic because in an LFRC_SIM build *every* test binary routes its cells
// through the shim: regular multithreaded tests hit this load concurrently
// (and must see "no run active"), even though sim tests themselves are
// single-OS-threaded.
std::atomic<run_state*> g_run{nullptr};

run_state* current_run() noexcept { return g_run.load(std::memory_order_relaxed); }

bool on_scheduler_thread(const run_state& r) noexcept {
    return std::this_thread::get_id() == r.tid;
}

constexpr std::uint64_t fnv_offset = 1469598103934665603ULL;
constexpr std::uint64_t fnv_prime = 1099511628211ULL;

std::uint64_t hash_trace(const std::vector<std::uint8_t>& trace) noexcept {
    std::uint64_t h = fnv_offset;
    for (std::uint8_t b : trace) h = (h ^ b) * fnv_prime;
    return h;
}

void fiber_trampoline() {
    run_state* r = current_run();
    vthread& f = r->fibers[static_cast<std::size_t>(r->current)];
    try {
        f.body();
    } catch (const std::exception& e) {
        fail_here("unhandled-exception", e.what());
    } catch (...) {
        fail_here("unhandled-exception", "non-std exception escaped a virtual thread");
    }
    f.status = vthread::st::finished;
    swapcontext(&f.ctx, &r->sched_ctx);
    std::abort();  // finished fibers are never resumed
}

// Yield arriving via util::cooperative_yield (backoff / spin_barrier): a
// voluntary reschedule, exempt from the preemption bound.
void cooperative_hook() {
    run_state* r = current_run();
    if (r == nullptr || !r->executing || r->current < 0 || !on_scheduler_thread(*r)) return;
    r->voluntary = true;
    yield_point();
}

// thread_registry::slot() resolution while a fiber runs: the fiber's own
// explicitly acquired slot, so slot-keyed subsystems (epoch records, counter
// stripes) see distinct virtual threads instead of one aliased OS thread.
std::size_t slot_override() {
    run_state* r = current_run();
    if (r != nullptr && r->current >= 0 && on_scheduler_thread(*r)) {
        return r->fibers[static_cast<std::size_t>(r->current)].slot;
    }
    return util::thread_registry::max_threads;  // fall through to native path
}

/// Next fiber to run, honouring the preemption bound; records the choice.
int pick_next(run_state& r) {
    int ready[64];
    int n = 0;
    for (std::size_t i = 0; i < r.fibers.size() && n < 64; ++i) {
        if (r.fibers[i].status == vthread::st::ready) ready[n++] = static_cast<int>(i);
    }
    if (n == 0) return -1;
    const bool voluntary = r.voluntary;
    r.voluntary = false;
    const bool last_ready = r.last_ran >= 0 &&
        r.fibers[static_cast<std::size_t>(r.last_ran)].status == vthread::st::ready;
    int choice;
    if (last_ready && !voluntary && r.preemption_bound >= 0 &&
        r.preemptions >= r.preemption_bound) {
        choice = r.last_ran;  // bound exhausted: run the same fiber on
    } else {
        choice = ready[r.rng.below(static_cast<std::uint64_t>(n))];
        if (last_ready && !voluntary && choice != r.last_ran) ++r.preemptions;
    }
    r.trace.push_back(static_cast<std::uint8_t>(choice));
    return choice;
}

// Private accessor for env's internals (env befriends lfrc::sim::run_access).
}  // namespace

struct run_access {
    static std::vector<std::pair<std::string, std::function<void()>>>& bodies(env& e) {
        return e.bodies_;
    }
    static std::vector<std::function<void()>>& quiesce(env& e) { return e.quiesce_; }
};

namespace {

struct schedule_outcome {
    bool failed = false;
    std::string kind;
    std::string report;
    std::uint64_t steps = 0;
    std::uint64_t trace_hash = 0;
};

schedule_outcome run_one_schedule(std::uint64_t schedule_seed, const options& opts,
                                  const std::function<void(env&)>& build) {
    if (current_run() != nullptr) {
        return {true, "nested-run", "sim::explore is not reentrant", 0, 0};
    }

    run_state r;
    r.tid = std::this_thread::get_id();
    r.schedule_seed = schedule_seed;
    r.rng.reseed(schedule_seed);
    r.max_steps = opts.max_steps;
    r.preemption_bound = opts.preemption_bound;
    r.arena = persistent_arena();
    r.arena_size = k_arena_bytes;

    g_run.store(&r, std::memory_order_release);
    util::cooperative_yield_hook().store(&cooperative_hook, std::memory_order_release);
    util::thread_registry::set_slot_override(&slot_override);
    r.shadow_active = true;

    {
        env e;
        build(e);  // runs on the scheduler context; allocations are tracked

        auto& bodies = run_access::bodies(e);
        r.fibers.reserve(bodies.size());
        for (auto& [label, body] : bodies) {
            vthread f;
            f.label = std::move(label);
            f.body = std::move(body);
            f.slot = util::thread_registry::instance().acquire_slot();
            r.fibers.push_back(std::move(f));
        }
        for (auto& f : r.fibers) {
            getcontext(&f.ctx);
            f.stack = std::make_unique<char[]>(k_stack_bytes);
            f.ctx.uc_stack.ss_sp = f.stack.get();
            f.ctx.uc_stack.ss_size = k_stack_bytes;
            f.ctx.uc_link = &r.sched_ctx;
            makecontext(&f.ctx, &fiber_trampoline, 0);
        }

        r.executing = true;
        while (!r.failed) {
            const int next = pick_next(r);
            if (next < 0) break;  // every fiber finished
            r.current = next;
            swapcontext(&r.sched_ctx, &r.fibers[static_cast<std::size_t>(next)].ctx);
            r.current = -1;
            r.last_ran = next;
        }
        r.executing = false;

        if (!r.failed) {
            // Quiescent checks: single context, all fibers done.
            for (auto& fn : run_access::quiesce(e)) {
                fn();
                if (r.failed) break;
            }
        }

        // Fiber bodies hold copies of the test's shared_ptrs (that is how the
        // lambdas keep their captures alive while running). Release them now,
        // while the run is still installed: otherwise the last owner of a
        // shared container is `r.fibers`, which outlives this scope, and the
        // container's destructor would run off-run — retiring arena pointers
        // into the global epoch domain after the leak check (spurious leaks)
        // and after blocks.clear() (poisoning the next schedule).
        for (auto& f : r.fibers) f.body = nullptr;

        // `e` dies here: the test's shared structures are destroyed, their
        // destructors retiring nodes through the epoch domain.
    }

    // Teardown must leave the (process-global) epoch domain with nothing
    // pending, even on failed schedules: retired nodes point into the arena,
    // and the next schedule reuses those addresses. Un-pin every fiber slot
    // first — an abandoned fiber may have died inside a guard — then drain.
    auto& dom = reclaim::epoch_domain::global();
    for (const auto& f : r.fibers) dom.clear_slot(f.slot);
    if (!r.failed && !dom.quiescent()) {
        // The residual-pending check below is only meaningful at
        // quiescence; a pin surviving clear_slot is its own bug.
        fail_here("pinned-at-teardown",
                  "a slot is still pinned after every fiber was cleared");
    }
    if (dom.drain(16) != 0 && !r.failed) {
        fail_here("residual-pending",
                  "epoch domain will not drain with every thread quiescent");
    }
    if (!r.failed && opts.check_leaks && r.live_blocks != 0) {
        char what[96];
        std::snprintf(what, sizeof what, "%zu managed block(s) still live at teardown",
                      r.live_blocks);
        fail_here("leak", what);
    }

    for (const auto& f : r.fibers) {
        util::thread_registry::instance().release_slot(f.slot);
    }
    util::thread_registry::set_slot_override(nullptr);
    util::cooperative_yield_hook().store(nullptr, std::memory_order_release);
    r.shadow_active = false;
    r.blocks.clear();
    g_run.store(nullptr, std::memory_order_release);

    return {r.failed, r.fail_kind, r.fail_report, r.steps, hash_trace(r.trace)};
}

}  // namespace

// ---- instrumentation points ----------------------------------------------

bool active() noexcept { return current_run() != nullptr; }

void yield_point() noexcept {
    run_state* r = current_run();
    if (r == nullptr || !r->executing || r->current < 0) return;
    if (!on_scheduler_thread(*r)) return;  // stray OS thread: never schedule it
    if (++r->steps > r->max_steps) {
        fail_here("schedule-budget-exceeded",
                  "instrumented-step budget exhausted (livelock, or raise max_steps)");
        return;  // unreachable from a fiber: fail_here abandons it
    }
    vthread& f = r->fibers[static_cast<std::size_t>(r->current)];
    swapcontext(&f.ctx, &r->sched_ctx);
}

void access_check(const void* addr) noexcept {
    run_state* r = current_run();
    if (r == nullptr || !r->shadow_active || !on_scheduler_thread(*r)) return;
    const char* a = static_cast<const char*>(addr);
    if (a < r->arena || a >= r->arena + r->arena_used) return;
    auto it = r->blocks.upper_bound(const_cast<char*>(a));
    if (it == r->blocks.begin()) return;
    --it;
    const char* base = it->first;
    const shadow_block& b = it->second;
    if (a >= base + b.size) return;  // gap between blocks (alignment padding)
    if (b.freed) {
        char what[128];
        std::snprintf(what, sizeof what, "access to freed block [%p,+%zu) at offset %zu",
                      static_cast<const void*>(base), b.size,
                      static_cast<std::size_t>(a - base));
        fail_here("use-after-free", what);
    }
}

bool failure_pending() noexcept {
    run_state* r = current_run();
    return r != nullptr && r->failed;
}

void fail_here(const char* kind, const char* what) noexcept {
    run_state* r = current_run();
    if (r == nullptr) {
        std::fprintf(stderr, "lfrc::sim violation outside any run: %s: %s\n", kind, what);
        return;
    }
    if (!r->failed) {  // first violation wins; later ones are consequences
        r->failed = true;
        r->fail_kind = kind;
        std::string rep;
        rep += "violation: ";
        rep += kind;
        rep += ": ";
        rep += what;
        if (r->current >= 0) {
            rep += " [in virtual thread '";
            rep += r->fibers[static_cast<std::size_t>(r->current)].label;
            rep += "']";
        }
        rep += "\nschedule seed ";
        rep += std::to_string(r->schedule_seed);
        rep += ", step ";
        rep += std::to_string(r->steps);
        rep += ", trace tail:";
        const std::size_t tail = r->trace.size() > 48 ? r->trace.size() - 48 : 0;
        for (std::size_t i = tail; i < r->trace.size(); ++i) {
            rep += ' ';
            rep += std::to_string(static_cast<int>(r->trace[i]));
        }
        r->fail_report = std::move(rep);
    }
    if (r->executing && r->current >= 0 && on_scheduler_thread(*r)) {
        // Abandon the fiber: swap away and never pick it again. Its frame
        // stays frozen (no unwinding through noexcept code); the stack is
        // released with the run.
        vthread& f = r->fibers[static_cast<std::size_t>(r->current)];
        f.status = vthread::st::abandoned;
        swapcontext(&f.ctx, &r->sched_ctx);
        std::abort();  // abandoned fibers are never resumed
    }
}

// ---- shadow heap ----------------------------------------------------------

void* managed_alloc(std::size_t bytes) {
    run_state* r = current_run();
    if (r == nullptr || !r->shadow_active || !on_scheduler_thread(*r)) {
        return ::operator new(bytes);
    }
    constexpr std::size_t align = alignof(std::max_align_t);
    const std::size_t off = (r->arena_used + align - 1) / align * align;
    if (off + bytes > r->arena_size) {
        fail_here("arena-exhausted", "sim arena exhausted; shrink the test");
        return ::operator new(bytes);  // only reachable off-fiber
    }
    char* p = r->arena + off;
    r->arena_used = off + bytes;
    r->blocks[p] = shadow_block{bytes, false};
    ++r->live_blocks;
    return p;
}

void managed_free(void* p, std::size_t /*bytes*/) noexcept {
    if (p == nullptr) return;
    char* a = static_cast<char*>(p);
    run_state* r = current_run();
    if (r != nullptr && r->shadow_active && on_scheduler_thread(*r)) {
        auto it = r->blocks.find(a);
        if (it != r->blocks.end()) {
            if (it->second.freed) {
                fail_here("double-free", "managed block freed twice (object retired twice?)");
                return;
            }
            // Quarantine: bytes stay mapped and intact until the arena
            // resets, so stale plain reads stay benign; only instrumented
            // accesses (and a second free) are violations.
            it->second.freed = true;
            --r->live_blocks;
            return;
        }
    }
    // Never hand arena interior pointers to the real heap (possible when a
    // free straggles past teardown, e.g. from a static destructor).
    char* arena = persistent_arena();
    if (a >= arena && a < arena + k_arena_bytes) return;
    ::operator delete(p);
}

std::size_t live_managed_blocks() noexcept {
    run_state* r = current_run();
    return r != nullptr ? r->live_blocks : 0;
}

// ---- exploration ----------------------------------------------------------

result replay(std::uint64_t schedule_seed, const options& opts,
              const std::function<void(env&)>& build) {
    schedule_outcome out = run_one_schedule(schedule_seed, opts, build);
    result res;
    res.failed = out.failed;
    res.kind = out.kind;
    res.failing_seed = schedule_seed;
    res.report = out.report;
    res.schedules_run = 1;
    res.total_steps = out.steps;
    res.trace_fingerprint = out.trace_hash;
    return res;
}

result explore(const options& opts, const std::function<void(env&)>& build) {
    if (const char* env_seed = std::getenv("LFRC_SIM_SEED")) {
        char* end = nullptr;
        const unsigned long long v = std::strtoull(env_seed, &end, 0);
        if (end != env_seed) return replay(static_cast<std::uint64_t>(v), opts, build);
    }
    // LFRC_SIM_SCHEDULES caps every test's budget from outside — the CI
    // quick cell (scripts/ci.sh) runs the whole suite at a few hundred
    // schedules; overnight exploration raises it without a rebuild. A cap
    // only ever shrinks a test's own budget (seeds are derived identically,
    // so the capped run explores a prefix of the full run's schedules).
    int schedules = opts.schedules;
    if (const char* env_budget = std::getenv("LFRC_SIM_SCHEDULES")) {
        char* end = nullptr;
        const unsigned long long v = std::strtoull(env_budget, &end, 0);
        if (end != env_budget && v > 0 && static_cast<int>(v) < schedules) {
            schedules = static_cast<int>(v);
        }
    }
    result res;
    std::uint64_t chain = opts.seed != 0 ? opts.seed : util::global_seed();
    std::uint64_t fingerprint = fnv_offset;
    for (int i = 0; i < schedules; ++i) {
        const std::uint64_t schedule_seed = util::splitmix64(chain);
        schedule_outcome out = run_one_schedule(schedule_seed, opts, build);
        ++res.schedules_run;
        res.total_steps += out.steps;
        fingerprint = (fingerprint ^ out.trace_hash) * fnv_prime;
        if (out.failed) {
            res.failed = true;
            res.kind = out.kind;
            res.failing_seed = schedule_seed;
            res.report = out.report + "\nreplay: rerun with LFRC_SIM_SEED=" +
                         std::to_string(schedule_seed) + " or sim::replay(seed, ...)";
            break;
        }
    }
    res.trace_fingerprint = fingerprint;
    return res;
}

}  // namespace lfrc::sim
