// Conformance suite for the lfrc::smr policy layer (DESIGN.md §10).
//
// Every policy — counted, borrowed, ebr, hp, leaky, gc_heap, deferred —
// must drive the SAME generic cores (stack_core, queue_core,
// hash_set_core) through the same semantic contract: LIFO/FIFO order,
// linearizable membership, conservation under concurrency, and the
// policy's own reclamation story at quiescence (reclaimers reach zero,
// leaky demonstrably leaks, the GC collects, deferred's review queue
// empties). This is the test that makes "one core, seven policies" an
// enforced property instead of a slogan.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <type_traits>
#include <vector>

#include "alloc/stats.hpp"
#include "containers/hash_set_core.hpp"
#include "containers/queue_core.hpp"
#include "containers/stack_core.hpp"
#include "gc/heap.hpp"
#include "lfrc/lfrc.hpp"
#include "lfrc_test_helpers.hpp"
#include "smr/smr.hpp"
#include "util/random.hpp"
#include "util/spin_barrier.hpp"

namespace {

using namespace lfrc;
using lfrc_tests::drain_epochs;

// Per-policy construction harness. Containers are always built OUTSIDE the
// worker scope (allocating core constructors bring their own
// P::thread_scope, and gc::heap::attach_scope does not nest); threads that
// touch a gc container enter a scope first. For every other policy the
// scope is a no-op and thread registration is automatic.
template <typename P>
struct harness {
    P policy{};
    struct scope {
        explicit scope(harness&) {}
    };
};

template <>
struct harness<smr::gc_heap> {
    gc::heap heap{1 << 22};  // threshold above test churn: no surprise STW
    smr::gc_heap policy{heap};
    struct scope {
        gc::heap::attach_scope attach;
        explicit scope(harness& h) : attach(h.heap) {}
    };
};

template <typename P>
class SmrConformance : public ::testing::Test {};

using AllPolicies =
    ::testing::Types<smr::counted<domain>, smr::borrowed<domain>, smr::ebr<>,
                     smr::hp<>, smr::leaky<>, smr::gc_heap, smr::deferred<>>;
TYPED_TEST_SUITE(SmrConformance, AllPolicies);

// One field layer (dcas/fields.hpp): every policy's link/flag/vslot is the
// type its engine's domain calls ptr_field/flag_field/ll_field, so every
// policy's single-owner reads go through the engine.
struct field_node;
template <typename P, typename Domain>
inline constexpr bool fields_are_domains_v =
    std::is_same_v<typename P::template link<field_node>,
                   typename Domain::template ptr_field<field_node>> &&
    std::is_same_v<typename P::flag, typename Domain::flag_field> &&
    std::is_same_v<typename P::template vslot<field_node>,
                   typename Domain::template ll_field<field_node>>;
static_assert(fields_are_domains_v<smr::deferred<>, domain>);
static_assert(fields_are_domains_v<smr::ebr<>, domain>);
static_assert(fields_are_domains_v<smr::hp<>, domain>);
static_assert(fields_are_domains_v<smr::leaky<>, domain>);
static_assert(fields_are_domains_v<smr::counted<domain>, domain>);
static_assert(fields_are_domains_v<smr::borrowed<domain>, domain>);
static_assert(fields_are_domains_v<smr::gc_heap, locked_domain>);

TYPED_TEST(SmrConformance, PolicySurface) {
    using P = TypeParam;
    static_assert(smr::policy<P>, "every implementation models smr::policy");
    static_assert(P::guard_slots == 4);
    // hp is the one scheme where walking a link of an already-dead node is
    // unsafe (its successor pointer is frozen, not protected).
    static_assert(P::has_lazy_traverse == !std::is_same_v<P, smr::hp<>>);
    // Standalone guard so a future hp refactor cannot flip the flag without
    // tripping a named assertion: cores key their unsafe-walk avoidance
    // (traverse degrading to protect) off exactly this being false.
    static_assert(!smr::hp<>::has_lazy_traverse,
                  "smr::hp must not advertise lazy traverse — a hazard "
                  "pointer protects one node, never a frozen successor");
    // R5's compile-time face (lfrc_lint checks the same at source level):
    // every core node declares smr_link_count and a visitor-invocable
    // smr_children; debug/sim builds assert the visit count matches.
    static_assert(smr::detail::children_cover_all_links_v<
                      typename containers::stack_core<int, P>::node>);
    static_assert(smr::detail::children_cover_all_links_v<
                      typename containers::queue_core<int, P>::node>);
    static_assert(smr::detail::children_cover_all_links_v<
                      containers::set_node<P, int>>);
    EXPECT_NE(P::name(), nullptr);
    EXPECT_GT(std::char_traits<char>::length(P::name()), 0u);
}

TYPED_TEST(SmrConformance, StackLifo) {
    harness<TypeParam> h;
    containers::stack_core<int, TypeParam> st(h.policy);
    typename harness<TypeParam>::scope ws(h);
    EXPECT_TRUE(st.empty());
    for (int i = 0; i < 50; ++i) st.push(i);
    for (int i = 49; i >= 0; --i) EXPECT_EQ(st.pop(), i);
    EXPECT_EQ(st.pop(), std::nullopt);
    EXPECT_TRUE(st.empty());
}

TYPED_TEST(SmrConformance, QueueFifoAndRefill) {
    harness<TypeParam> h;
    containers::queue_core<int, TypeParam> q(h.policy);
    typename harness<TypeParam>::scope ws(h);
    EXPECT_TRUE(q.empty());
    for (int i = 0; i < 50; ++i) q.enqueue(i);
    for (int i = 0; i < 50; ++i) EXPECT_EQ(q.dequeue(), i);
    EXPECT_EQ(q.dequeue(), std::nullopt);
    for (int round = 0; round < 20; ++round) {
        q.enqueue(round);
        EXPECT_EQ(q.dequeue(), round);
        EXPECT_EQ(q.dequeue(), std::nullopt);
    }
}

TYPED_TEST(SmrConformance, HashSetMembership) {
    harness<TypeParam> h;
    containers::hash_set_core<TypeParam, int> set(8, h.policy);
    typename harness<TypeParam>::scope ws(h);
    for (int i = 0; i < 100; ++i) EXPECT_TRUE(set.insert(i));
    EXPECT_FALSE(set.insert(42));
    for (int i = 0; i < 100; ++i) EXPECT_TRUE(set.contains(i));
    EXPECT_FALSE(set.contains(100));
    EXPECT_EQ(set.size(), 100u);
    for (int i = 0; i < 100; i += 2) EXPECT_TRUE(set.erase(i));
    EXPECT_FALSE(set.erase(2));
    for (int i = 0; i < 100; ++i) EXPECT_EQ(set.contains(i), i % 2 == 1);
    EXPECT_EQ(set.size(), 50u);
}

// Buckets are inline heads: building the set allocates no node, and each
// insert allocates exactly one.
TYPED_TEST(SmrConformance, HashSetBucketsAllocateNoNodes) {
    harness<TypeParam> h;
    h.policy.drain(64);  // earlier tests' garbage must not free mid-count
    const std::int64_t before = alloc::live_objects();
    containers::hash_set_core<TypeParam, int> set(16, h.policy);
    EXPECT_EQ(alloc::live_objects() - before, 0)
        << "constructing " << set.bucket_count() << " buckets allocated nodes";
    typename harness<TypeParam>::scope ws(h);
    constexpr int n = 100;
    for (int i = 0; i < n; ++i) ASSERT_TRUE(set.insert(i));
    EXPECT_EQ(alloc::live_objects() - before, n);
}

TYPED_TEST(SmrConformance, StackConcurrentSumConserved) {
    harness<TypeParam> h;
    containers::stack_core<std::int64_t, TypeParam> st(h.policy);
    constexpr int threads = 4;
    constexpr int per_thread = 3000;
    std::atomic<std::int64_t> push_sum{0};
    std::atomic<std::int64_t> pop_sum{0};
    util::spin_barrier barrier{threads};
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            typename harness<TypeParam>::scope ws(h);
            util::xoshiro256 rng{static_cast<std::uint64_t>(t) + 11};
            barrier.arrive_and_wait();
            for (int i = 0; i < per_thread; ++i) {
                if (rng.below(2) == 0) {
                    const std::int64_t v = t * per_thread + i + 1;
                    st.push(v);
                    push_sum.fetch_add(v);
                } else if (auto got = st.pop()) {
                    pop_sum.fetch_add(*got);
                }
            }
        });
    }
    for (auto& t : pool) t.join();
    typename harness<TypeParam>::scope ws(h);
    while (auto got = st.pop()) pop_sum.fetch_add(*got);
    EXPECT_EQ(push_sum.load(), pop_sum.load());
}

TYPED_TEST(SmrConformance, HashSetConcurrentChurnStaysConsistent) {
    harness<TypeParam> h;
    containers::hash_set_core<TypeParam, int> set(16, h.policy);
    constexpr int threads = 4;
    constexpr int per_thread = 2000;
    constexpr int keyspace = 64;
    std::atomic<std::int64_t> net{0};  // inserts-won minus erases-won
    util::spin_barrier barrier{threads};
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            typename harness<TypeParam>::scope ws(h);
            util::xoshiro256 rng{static_cast<std::uint64_t>(t) + 23};
            barrier.arrive_and_wait();
            for (int i = 0; i < per_thread; ++i) {
                const int key = static_cast<int>(rng.below(keyspace));
                const auto roll = rng.below(100);
                if (roll < 40) {
                    if (set.insert(key)) net.fetch_add(1);
                } else if (roll < 80) {
                    if (set.erase(key)) net.fetch_sub(1);
                } else {
                    set.contains(key);
                }
            }
        });
    }
    for (auto& t : pool) t.join();
    // Successful inserts and erases alternate per key, so the surviving
    // membership must equal the net insert/erase balance exactly.
    typename harness<TypeParam>::scope ws(h);
    EXPECT_EQ(static_cast<std::int64_t>(set.size()), net.load());
    for (int k = 0; k < keyspace; ++k) {
        if (set.contains(k)) set.erase(k);
    }
    EXPECT_EQ(set.size(), 0u);
}

// The policy-specific half of the contract: what happens to retired memory
// once the structure is quiet.
TYPED_TEST(SmrConformance, ReclamationStoryAtQuiescence) {
    using P = TypeParam;
    constexpr int churn = 2000;
    if constexpr (std::is_same_v<P, smr::gc_heap>) {
        // GC: popped nodes become garbage; a forced collection frees them
        // all (an empty stack keeps nothing live — no sentinel).
        harness<P> h;
        containers::stack_core<int, P> st(h.policy);
        typename harness<P>::scope ws(h);
        for (int i = 0; i < churn; ++i) st.push(i);
        for (int i = 0; i < churn; ++i) st.pop();
        h.heap.collect_now();
        EXPECT_EQ(h.heap.live_objects(), 0u);
    } else if constexpr (std::is_same_v<P, smr::leaky<>>) {
        // Leaky: every popped node is lost, measurably.
        alloc::scope_check check;
        harness<P> h;
        containers::stack_core<int, P> st(h.policy);
        for (int i = 0; i < churn; ++i) st.push(i);
        for (int i = 0; i < churn; ++i) st.pop();
        EXPECT_GE(check.leaked_objects(), static_cast<std::int64_t>(churn));
    } else if constexpr (std::is_same_v<P, smr::deferred<>>) {
        // deferred RC: counts are thread-local until guard exit, frees wait
        // in the epoch domain for a grace period — but at quiescence a
        // bounded drain must reconcile everything and reach zero backlog.
        // (Pre-drain clears leftovers from earlier typed tests, whose
        // chains unravel one level per pass, so the allocation census
        // below starts from a clean slate.)
        drain_epochs();
        alloc::scope_check check;
        {
            harness<P> h;
            containers::stack_core<int, P> st(h.policy);
            for (int i = 0; i < churn; ++i) st.push(i);
            for (int i = 0; i < churn; ++i) st.pop();
            st.policy().drain(40);
            EXPECT_EQ(st.policy().pending(), 0u);
        }
        EXPECT_EQ(check.leaked_objects(), 0);
    } else if constexpr (P::counted_links) {
        // counted/borrowed: the domain's object census must balance once
        // deferred frees flush.
        const auto before = domain::counters().snapshot();
        {
            harness<P> h;
            containers::stack_core<int, P> st(h.policy);
            for (int i = 0; i < churn; ++i) st.push(i);
            for (int i = 0; i < churn; ++i) st.pop();
        }
        drain_epochs();
        const auto after = domain::counters().snapshot();
        EXPECT_EQ(after.objects_created - before.objects_created,
                  after.objects_destroyed - before.objects_destroyed);
    } else {
        // ebr/hp: a bounded drain at quiescence reclaims everything.
        drain_epochs();
        reclaim::hazard_domain::global().drain_all();
        alloc::scope_check check;
        {
            harness<P> h;
            containers::stack_core<int, P> st(h.policy);
            for (int i = 0; i < churn; ++i) st.push(i);
            for (int i = 0; i < churn; ++i) st.pop();
            st.policy().drain(40);
            EXPECT_EQ(st.policy().pending(), 0u);
        }
        EXPECT_EQ(check.leaked_objects(), 0);
    }
}

}  // namespace
