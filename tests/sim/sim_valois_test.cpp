// Model check for the Valois comparator's pop (containers::valois_stack).
//
// pop pins the head with an optimistic count, re-checks that it is still the
// head, and CASes it off. When that CAS fails, the count to drop is the one
// on the pinned node — but compare_exchange writes the current head into
// its expected argument, so a pop that passes its pinned pointer itself
// releases a node it never pinned. The pinned node then keeps a count
// forever, and the new head loses the stack's count: it reaches the
// freelist while still linked, the next pop of it drives its count below
// zero, and acquire_node can never reuse it again: here the late thread's
// push spins on it until the step budget runs out. On a multi-core host
// that was test_valois's hang (ConcurrentConservation) and its segfault
// (HighContentionPopOnlyRace: the witness is nullptr once a racing pop
// empties the stack).
//
// The fibers drive a REAL valois_stack (fresh per schedule) whose count,
// link and head words are sim-instrumented. A popper can only see its CAS
// fail if it is parked between its head re-check and the CAS while the
// other popper takes the head: one charged preemption.
//
// The mutant leg compiles pop's seeded witness-release bug
// (mutate_release_cas_witness) and proves this harness catches it at
// preemption_bound=1 — the clean legs are only trusted because this leg
// shows the harness would have seen the bug.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <memory>
#include <optional>

#include "containers/valois_stack.hpp"
#include "sim_test_support.hpp"
#include "util/sim_hook.hpp"

namespace {

using namespace sim_tests;
using stack = lfrc::containers::valois_stack<int>;

/// Two poppers race over [1, 2]; a late thread then pushes 3 and pops once.
/// At quiescence the stack is drained with a bounded loop (a node linked
/// twice forms a cycle), and each of 1, 2 and 3 must have come out exactly
/// once.
///
/// The late thread starts only after both pops finished: with a correct
/// pop a stale popper may still hold a transient count on a freed node,
/// and acquire_node spins on that node until the count is released — a
/// spin the scheduler cannot break once the preemption bound is spent.
sim::result run_valois_race(std::uint64_t seed, int schedules, int bound) {
    auto o = opts(seed, schedules);
    o.preemption_bound = bound;
    return sim::explore(o, [](sim::env& e) {
        auto st = std::make_shared<stack>();
        st->push(2);
        st->push(1);
        auto seen = std::make_shared<std::array<int, 4>>();
        const auto record = [seen](std::optional<int> v) {
            if (v) ++(*seen)[static_cast<std::size_t>(*v)];
        };
        auto pops_done = std::make_shared<std::atomic<int>>(0);

        const auto popper = [=] {
            record(st->pop());
            pops_done->fetch_add(1, std::memory_order_relaxed);
        };
        e.spawn("pop-a", popper);
        e.spawn("pop-b", popper);

        e.spawn("late", [=] {
            // Plain-atomic spin + voluntary yields: waiting costs no
            // preemption budget.
            while (pops_done->load(std::memory_order_relaxed) != 2) {
                lfrc::util::cooperative_yield();
            }
            st->push(3);
            record(st->pop());
        });

        e.on_quiesce([st, record, seen] {
            for (int i = 0; i < 8; ++i) {
                const auto v = st->pop();
                if (!v) break;
                record(v);
            }
            if (!st->empty() || *seen != std::array<int, 4>{0, 1, 1, 1}) {
                sim::fail_here("valois-lost-or-duplicated",
                               "a value did not come out exactly once, or "
                               "the stack did not drain");
            }
        });
    });
}

// The real pop: no schedule may lose, duplicate or hang a value.
TEST(SimValois, PopRaceBoundOne) {
    stack::mutate_release_cas_witness().store(false);
    EXPECT_CLEAN(run_valois_race(7001, 400, /*bound=*/1));
}

TEST(SimValois, PopRaceBoundTwo) {
    stack::mutate_release_cas_witness().store(false);
    EXPECT_CLEAN(run_valois_race(7002, 400, /*bound=*/2));
}

TEST(SimValois, PopRaceUnbounded) {
    stack::mutate_release_cas_witness().store(false);
    EXPECT_CLEAN(run_valois_race(7003, 400, /*bound=*/-1));
}

// Mutant validation: a pop whose CAS failed releases the CAS's witness, as
// the pre-fix pop did. If the harness stops catching this, the clean legs
// above are vacuous.
TEST(SimValois, WitnessReleaseMutantCaughtAtBoundOne) {
    stack::mutate_release_cas_witness().store(true);
    const auto res = run_valois_race(7004, 400, /*bound=*/1);
    stack::mutate_release_cas_witness().store(false);
    EXPECT_TRUE(res.failed)
        << "witness-release mutant survived " << res.schedules_run
        << " schedules at preemption_bound=1 — the sim harness lost its "
           "ability to see a pop releasing a node it never pinned";
}

}  // namespace
