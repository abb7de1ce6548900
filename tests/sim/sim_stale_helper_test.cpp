// The stale-helper window on a domain field, staged: a helper that
// validated an MCAS before its owner finished can resume afterwards, find
// the cell still holding the operation's expected value (an LFRCLoad's
// `next: P -> P` leaves it there), install its RDCSS word, and restore the
// value only when its rdcss_complete runs a few steps later. A single
// owner reading the cell in that window — lfrc_visit_children on a node
// whose count just reached zero — must get P, not the word.
// ptr_field/ll_field::exclusive_get read through the engine, which
// resolves the word; the seeded mutant (basic_domain::
// mutate_raw_exclusive_get) loads the cell raw, as exclusive_get did when
// counted containers over mcas_engine segfaulted now and then.
//
// Staging, in the shape of sim_kcas_reuse_test: the owner begins
// {next: P -> P, rc: R -> R+1} (the pair load() DCASes), yields, completes
// it, yields, then reads `next` as a single owner; the helper helps the
// owner's tagged word. Free-running counted-container races never reached
// this window in the sim; staged, unbounded exploration caught the mutant
// at every base seed tried (9101-9110: first catch at schedule 25-121).
// The pinned seed 9104 catches it at schedule 121, inside the CI quick
// cell's LFRC_SIM_SCHEDULES=500 cap; the engine-read control runs the
// identical harness for the whole budget (and stayed clean over 3,000
// schedules at three seeds, unbounded and at preemption bound 2).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>

#include "dcas/mcas_engine.hpp"
#include "lfrc_test_helpers.hpp"
#include "sim_test_support.hpp"
#include "util/backoff.hpp"

namespace {

using namespace sim_tests;
using D = mcas_dom;
using engine = lfrc::dcas::mcas_engine;
using node = lfrc_tests::test_node<D>;

constexpr int k_budget = 500;  // the CI quick cell's cap

struct state_t {
    typename D::template ptr_field<node> next;
    // Publication channel for the owner's tagged word: a plain atomic, so
    // reading it is not a model step.
    std::atomic<std::uint64_t> md{0};
};

void build_stale_helper(sim::env& e) {
    auto s = std::make_shared<state_t>();
    D::store_alloc(s->next, D::make<node>(7));
    e.spawn("owner", [s] {
        node* p = D::peek(s->next);
        lfrc::dcas::cell& next_cell = D::testing_cell_of(s->next);
        lfrc::dcas::cell& rc_cell = D::testing_rc_of(p);
        const std::uint64_t pw = engine::read(next_cell);
        const std::uint64_t r = engine::read(rc_cell);
        const std::uint64_t r1 = lfrc::dcas::encode_count(lfrc::dcas::decode_count(r) + 1);
        engine::casn_op op[2] = {{&next_cell, pw, pw}, {&rc_cell, r, r1}};
        const std::uint64_t md = engine::testing::begin_op(op, 2);
        s->md.store(md, std::memory_order_relaxed);
        lfrc::util::backoff bo;
        bo();  // the helper's window opens without costing a preemption
        engine::testing::complete_op(md);
        bo();
        if (s->next.exclusive_get() != p) {
            sim::fail_here("stale-helper-raw-read",
                           "exclusive_get returned a parked descriptor word, not the pointer");
        }
        D::destroy(p);  // the count the staged load took
    });
    e.spawn("helper", [s] {
        lfrc::util::backoff bo;
        std::uint64_t md;
        while ((md = s->md.load(std::memory_order_relaxed)) == 0) bo();
        (void)engine::testing::help(md);
    });
    e.on_quiesce([s] {
        D::store(s->next, static_cast<node*>(nullptr));
        expect_quiesced_drain();
    });
}

template <bool Mutated>
sim::result run_stale_helper(std::uint64_t seed, int schedules) {
    D::mutate_raw_exclusive_get().store(Mutated, std::memory_order_relaxed);
    const auto res = sim::explore(opts(seed, schedules), build_stale_helper);
    D::mutate_raw_exclusive_get().store(false, std::memory_order_relaxed);
    return res;
}

TEST(SimStaleHelper, RawExclusiveGetMutantIsCaught) {
    const auto res = run_stale_helper</*Mutated=*/true>(9104, k_budget);
    ASSERT_TRUE(res.failed) << "a raw exclusive_get survived " << k_budget
                            << " schedules of the staged stale-helper window";
    EXPECT_EQ(res.kind, "stale-helper-raw-read") << res.report;
    EXPECT_LE(res.schedules_run, k_budget);
}

TEST(SimStaleHelper, EngineReadPassesTheSameHarness) {
    const auto res = run_stale_helper</*Mutated=*/false>(9104, k_budget);
    EXPECT_CLEAN(res);
    int expected = k_budget;
    if (const char* cap = std::getenv("LFRC_SIM_SCHEDULES")) {
        const long v = std::atol(cap);
        if (v > 0 && v < expected) expected = static_cast<int>(v);
    }
    EXPECT_EQ(res.schedules_run, expected);
}

}  // namespace
