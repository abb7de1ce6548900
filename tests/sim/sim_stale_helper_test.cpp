// The stale-helper window on a field, staged: a helper that validated an
// MCAS before its owner finished can resume afterwards, find the cell
// still holding the operation's expected value (an LFRCLoad's `next: P ->
// P` leaves it there), install its RDCSS word, and restore the value only
// when its rdcss_complete runs a few steps later. A single owner reading
// the cell in that window — lfrc_visit_children on a node whose count just
// reached zero, or deferred's child release — must get P, not the word.
// Every field's exclusive_get (dcas/fields.hpp) reads through the engine,
// which resolves the word; the seeded mutant (dcas::
// mutate_raw_exclusive_get) loads the cell raw, as exclusive_get did when
// counted containers over mcas_engine segfaulted now and then.
//
// Staging, in the shape of sim_kcas_reuse_test: the owner begins
// {ptr: P -> P, rc: R -> R+1} (the pair load() and load_linked() DCAS),
// yields, completes it, yields, then reads the field as a single owner;
// the helper helps the owner's tagged word. The window is staged on two
// fields: a domain ptr_field and the shipped deferred policy's vslot,
// whose pointer cell is the one the operation names. Free-running
// counted-container races never reached this window in the sim; staged,
// unbounded exploration caught the ptr_field mutant at every base seed
// tried (9101-9110: first catch at schedule 25-121). The pinned seed 9104
// catches both mutants at schedule 121, inside the CI quick cell's
// LFRC_SIM_SCHEDULES=500 cap; the engine-read controls run the identical
// harness for the whole budget (and the ptr_field one stayed clean over
// 3,000 schedules at three seeds, unbounded and at preemption bound 2).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>

#include "dcas/mcas_engine.hpp"
#include "lfrc_test_helpers.hpp"
#include "sim_test_support.hpp"
#include "smr/deferred.hpp"
#include "util/backoff.hpp"

namespace {

using namespace sim_tests;
using D = mcas_dom;
using engine = lfrc::dcas::mcas_engine;
using node = lfrc_tests::test_node<D>;

constexpr int k_budget = 500;  // the CI quick cell's cap

// The fields the window is staged on, and the cell of each that holds P.
using link_t = D::ptr_field<node>;
using vslot_t = lfrc::smr::deferred<>::vslot<node>;

lfrc::dcas::cell& pointer_cell(link_t& f) { return f.cell(); }
lfrc::dcas::cell& pointer_cell(vslot_t& f) { return f.ptr_cell(); }

template <typename Field>
struct state_t {
    Field field;
    // Publication channel for the owner's tagged word: a plain atomic, so
    // reading it is not a model step.
    std::atomic<std::uint64_t> md{0};
};

template <typename Field>
void build_stale_helper(sim::env& e) {
    auto s = std::make_shared<state_t<Field>>();
    // The field holds P's birth reference.
    const std::uint64_t pw = lfrc::dcas::encode_ptr(D::make<node>(7).release());
    (void)engine::cas(pointer_cell(s->field), 0, pw);
    e.spawn("owner", [s] {
        lfrc::dcas::cell& ptr_cell = pointer_cell(s->field);
        node* p = lfrc::dcas::decode_ptr<node>(engine::read(ptr_cell));
        lfrc::dcas::cell& rc_cell = D::testing_rc_of(p);
        const std::uint64_t w = engine::read(ptr_cell);
        const std::uint64_t r = engine::read(rc_cell);
        const std::uint64_t r1 = lfrc::dcas::encode_count(lfrc::dcas::decode_count(r) + 1);
        engine::casn_op op[2] = {{&ptr_cell, w, w}, {&rc_cell, r, r1}};
        const std::uint64_t md = engine::testing::begin_op(op, 2);
        s->md.store(md, std::memory_order_relaxed);
        lfrc::util::backoff bo;
        bo();  // the helper's window opens without costing a preemption
        engine::testing::complete_op(md);
        bo();
        if (s->field.exclusive_get() != p) {
            sim::fail_here("stale-helper-raw-read",
                           "exclusive_get returned a parked descriptor word, not the pointer");
        }
        D::destroy(p);  // the count the staged operation took
    });
    e.spawn("helper", [s] {
        lfrc::util::backoff bo;
        std::uint64_t md;
        while ((md = s->md.load(std::memory_order_relaxed)) == 0) bo();
        (void)engine::testing::help(md);
    });
    e.on_quiesce([s, pw] {
        (void)engine::cas(pointer_cell(s->field), pw, 0);
        D::destroy(lfrc::dcas::decode_ptr<node>(pw));
        expect_quiesced_drain();
    });
}

template <typename Field, bool Mutated>
sim::result run_stale_helper(std::uint64_t seed, int schedules) {
    lfrc::dcas::mutate_raw_exclusive_get().store(Mutated, std::memory_order_relaxed);
    const auto res = sim::explore(opts(seed, schedules), build_stale_helper<Field>);
    lfrc::dcas::mutate_raw_exclusive_get().store(false, std::memory_order_relaxed);
    return res;
}

template <typename Field>
void expect_mutant_caught(std::uint64_t seed) {
    const auto res = run_stale_helper<Field, /*Mutated=*/true>(seed, k_budget);
    ASSERT_TRUE(res.failed) << "a raw exclusive_get survived " << k_budget
                            << " schedules of the staged stale-helper window";
    EXPECT_EQ(res.kind, "stale-helper-raw-read") << res.report;
    EXPECT_LE(res.schedules_run, k_budget);
}

template <typename Field>
void expect_engine_read_clean(std::uint64_t seed) {
    const auto res = run_stale_helper<Field, /*Mutated=*/false>(seed, k_budget);
    EXPECT_CLEAN(res);
    int expected = k_budget;
    if (const char* cap = std::getenv("LFRC_SIM_SCHEDULES")) {
        const long v = std::atol(cap);
        if (v > 0 && v < expected) expected = static_cast<int>(v);
    }
    EXPECT_EQ(res.schedules_run, expected);
}

TEST(SimStaleHelper, RawExclusiveGetMutantIsCaught) { expect_mutant_caught<link_t>(9104); }

TEST(SimStaleHelper, EngineReadPassesTheSameHarness) { expect_engine_read_clean<link_t>(9104); }

TEST(SimStaleHelper, RawVslotExclusiveGetMutantIsCaught) {
    expect_mutant_caught<vslot_t>(9104);
}

TEST(SimStaleHelper, VslotEngineReadPassesTheSameHarness) {
    expect_engine_read_clean<vslot_t>(9104);
}

}  // namespace
