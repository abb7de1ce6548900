// Tests for the LFRC-converted containers (Treiber stack, Michael-Scott
// queue) over both engines, and the manual-reclamation baselines
// (smr::leaky / smr::ebr / smr::hp on the same generic cores) — sequential
// semantics plus concurrent conservation and leak checks.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "containers/queue_core.hpp"
#include "containers/stack_core.hpp"
#include "lfrc_test_helpers.hpp"
#include "smr/counted.hpp"
#include "smr/deferred.hpp"
#include "smr/manual.hpp"
#include "util/random.hpp"
#include "util/spin_barrier.hpp"

namespace {

using namespace lfrc;
using lfrc_tests::drain_epochs;

// ---- LFRC stack --------------------------------------------------------------

template <typename D>
class LfrcStackTest : public ::testing::Test {};
using Domains = ::testing::Types<domain, locked_domain>;
TYPED_TEST_SUITE(LfrcStackTest, Domains);

TYPED_TEST(LfrcStackTest, LifoOrder) {
    containers::stack_core<int, smr::counted<TypeParam>> st;
    EXPECT_TRUE(st.empty());
    for (int i = 0; i < 10; ++i) st.push(i);
    for (int i = 9; i >= 0; --i) EXPECT_EQ(st.pop(), i);
    EXPECT_EQ(st.pop(), std::nullopt);
}

TYPED_TEST(LfrcStackTest, NoLeakAfterChurn) {
    using D = TypeParam;
    const auto before = D::counters().snapshot();
    {
        containers::stack_core<int, smr::counted<D>> st;
        for (int round = 0; round < 10; ++round) {
            for (int i = 0; i < 200; ++i) st.push(i);
            for (int i = 0; i < 150; ++i) st.pop();
        }
    }
    drain_epochs();
    const auto after = D::counters().snapshot();
    EXPECT_EQ(after.objects_created - before.objects_created,
              after.objects_destroyed - before.objects_destroyed);
}

TYPED_TEST(LfrcStackTest, ConcurrentConservation) {
    containers::stack_core<std::int64_t, smr::counted<TypeParam>> st;
    constexpr int threads = 4;
    constexpr int per_thread = 5000;
    const auto total = static_cast<std::int64_t>(threads) * per_thread;
    std::vector<std::atomic<int>> seen(static_cast<std::size_t>(total));
    for (auto& s : seen) s.store(0);
    util::spin_barrier barrier{threads};
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            util::xoshiro256 rng{static_cast<std::uint64_t>(t) + 77};
            barrier.arrive_and_wait();
            std::int64_t next = static_cast<std::int64_t>(t) * per_thread;
            const std::int64_t limit = next + per_thread;
            while (next < limit) {
                if (rng.below(100) < 55) {
                    st.push(next++);
                } else if (auto got = st.pop()) {
                    seen[static_cast<std::size_t>(*got)].fetch_add(1);
                }
            }
        });
    }
    for (auto& t : pool) t.join();
    while (auto got = st.pop()) seen[static_cast<std::size_t>(*got)].fetch_add(1);
    for (std::int64_t i = 0; i < total; ++i) {
        ASSERT_EQ(seen[static_cast<std::size_t>(i)].load(), 1) << "token " << i;
    }
}

// ---- LFRC queue --------------------------------------------------------------

template <typename D>
class LfrcQueueTest : public ::testing::Test {};
TYPED_TEST_SUITE(LfrcQueueTest, Domains);

TYPED_TEST(LfrcQueueTest, FifoOrder) {
    containers::queue_core<int, smr::counted<TypeParam>> q;
    EXPECT_TRUE(q.empty());
    for (int i = 0; i < 10; ++i) q.enqueue(i);
    for (int i = 0; i < 10; ++i) EXPECT_EQ(q.dequeue(), i);
    EXPECT_EQ(q.dequeue(), std::nullopt);
    EXPECT_TRUE(q.empty());
}

TYPED_TEST(LfrcQueueTest, EmptyRefillCycles) {
    containers::queue_core<int, smr::counted<TypeParam>> q;
    for (int round = 0; round < 100; ++round) {
        q.enqueue(round);
        EXPECT_EQ(q.dequeue(), round);
        EXPECT_EQ(q.dequeue(), std::nullopt);
    }
}

TYPED_TEST(LfrcQueueTest, NoLeakAfterChurn) {
    using D = TypeParam;
    const auto before = D::counters().snapshot();
    {
        containers::queue_core<int, smr::counted<D>> q;
        for (int round = 0; round < 10; ++round) {
            for (int i = 0; i < 200; ++i) q.enqueue(i);
            for (int i = 0; i < 150; ++i) q.dequeue();
        }
    }
    drain_epochs();
    const auto after = D::counters().snapshot();
    EXPECT_EQ(after.objects_created - before.objects_created,
              after.objects_destroyed - before.objects_destroyed);
}

TYPED_TEST(LfrcQueueTest, MpmcConservationAndPerProducerOrder) {
    containers::queue_core<std::int64_t, smr::counted<TypeParam>> q;
    constexpr int producers = 2;
    constexpr int consumers = 2;
    constexpr int per_producer = 5000;
    std::atomic<std::int64_t> consumed{0};
    std::vector<std::atomic<std::int64_t>> last_index(producers);
    for (auto& l : last_index) l.store(-1);
    std::atomic<int> violations{0};
    util::spin_barrier barrier{producers + consumers};
    std::vector<std::thread> pool;
    for (int p = 0; p < producers; ++p) {
        pool.emplace_back([&, p] {
            barrier.arrive_and_wait();
            for (int i = 0; i < per_producer; ++i) {
                q.enqueue(static_cast<std::int64_t>(p) * per_producer + i);
            }
        });
    }
    // Single consumer checks strict per-producer FIFO; the second consumer
    // only counts (multi-consumer pops interleave).
    for (int c = 0; c < consumers; ++c) {
        pool.emplace_back([&] {
            barrier.arrive_and_wait();
            while (consumed.load() < static_cast<std::int64_t>(producers) * per_producer) {
                auto got = q.dequeue();
                if (!got) {
                    std::this_thread::yield();
                    continue;
                }
                consumed.fetch_add(1);
                const auto p = *got / per_producer;
                const auto idx = *got % per_producer;
                auto& last = last_index[static_cast<std::size_t>(p)];
                std::int64_t prev = last.load();
                while (prev < idx && !last.compare_exchange_weak(prev, idx)) {}
                if (prev == idx) violations.fetch_add(1);  // duplicate dequeue
            }
        });
    }
    for (auto& t : pool) t.join();
    EXPECT_EQ(violations.load(), 0);
    EXPECT_TRUE(q.empty());
}

// ---- Reclaimer-policy baselines -----------------------------------------------

template <typename P>
class ReclaimStackTest : public ::testing::Test {};
using Policies = ::testing::Types<smr::leaky<>, smr::ebr<>, smr::hp<>>;
TYPED_TEST_SUITE(ReclaimStackTest, Policies);

TYPED_TEST(ReclaimStackTest, LifoOrder) {
    containers::stack_core<int, TypeParam> st;
    for (int i = 0; i < 10; ++i) st.push(i);
    for (int i = 9; i >= 0; --i) EXPECT_EQ(st.pop(), i);
    EXPECT_EQ(st.pop(), std::nullopt);
}

TYPED_TEST(ReclaimStackTest, ConcurrentSumConserved) {
    containers::stack_core<std::int64_t, TypeParam> st;
    constexpr int threads = 4;
    constexpr int per_thread = 4000;
    std::atomic<std::int64_t> pop_sum{0};
    std::atomic<std::int64_t> push_sum{0};
    util::spin_barrier barrier{threads};
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            util::xoshiro256 rng{static_cast<std::uint64_t>(t) + 5};
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
    while (auto got = st.pop()) pop_sum.fetch_add(*got);
    EXPECT_EQ(push_sum.load(), pop_sum.load());
}

template <typename P>
class ReclaimQueueTest : public ::testing::Test {};
TYPED_TEST_SUITE(ReclaimQueueTest, Policies);

TYPED_TEST(ReclaimQueueTest, FifoOrder) {
    containers::queue_core<int, TypeParam> q;
    EXPECT_TRUE(q.empty());
    for (int i = 0; i < 10; ++i) q.enqueue(i);
    for (int i = 0; i < 10; ++i) EXPECT_EQ(q.dequeue(), i);
    EXPECT_EQ(q.dequeue(), std::nullopt);
}

TYPED_TEST(ReclaimQueueTest, SpscOrderPreserved) {
    containers::queue_core<int, TypeParam> q;
    constexpr int total = 20000;
    std::atomic<int> bad_order{0};
    std::thread producer([&] {
        for (int i = 0; i < total; ++i) q.enqueue(i);
    });
    std::thread consumer([&] {
        int expected = 0;
        while (expected < total) {
            if (auto got = q.dequeue()) {
                if (*got != expected) bad_order.fetch_add(1);
                ++expected;
            } else {
                std::this_thread::yield();
            }
        }
    });
    producer.join();
    consumer.join();
    EXPECT_EQ(bad_order.load(), 0);
}

// EBR/HP baselines must actually reclaim: after churn and a drain, the
// number of live tracked bytes should drop back near the baseline.
// Flush both global domains so earlier suites' retirements don't skew the
// scope accounting.
void flush_global_domains() {
    reclaim::epoch_domain::global().drain(40);
    reclaim::hazard_domain::global().drain_all();
}

TEST(ReclaimStackMemory, EbrReclaimsAtQuiescence) {
    flush_global_domains();
    alloc::scope_check check;
    {
        containers::stack_core<int, smr::ebr<>> st;
        for (int i = 0; i < 5000; ++i) st.push(i);
        for (int i = 0; i < 5000; ++i) st.pop();
        st.policy().drain(40);
    }
    EXPECT_EQ(check.leaked_objects(), 0);
}

TEST(ReclaimStackMemory, HpReclaimsAtQuiescence) {
    flush_global_domains();
    alloc::scope_check check;
    {
        containers::stack_core<int, smr::hp<>> st;
        for (int i = 0; i < 5000; ++i) st.push(i);
        for (int i = 0; i < 5000; ++i) st.pop();
        st.policy().drain(40);
    }
    EXPECT_EQ(check.leaked_objects(), 0);
}

// Destroying a deferred stack severs one head reference; the other 9,999
// nodes reach zero one level at a time, each retired from inside its
// parent's review and freed a grace period later, so pending() stays level
// while the chain unravels. One drain(64) must still chase the whole
// cascade. Fails against a drain that runs one reclaim pass per round
// (epoch_domain::cascade_passes = 1): 64 passes free a few dozen levels.
TEST(ReclaimStackMemory, DeferredChainDrainsInOneCall) {
    flush_global_domains();
    const std::int64_t before = alloc::live_objects();
    {
        containers::stack_core<int, smr::deferred<>> st;
        for (int i = 0; i < 10000; ++i) st.push(i);
    }
    EXPECT_EQ(smr::deferred<>{}.drain(64), 0u);
    EXPECT_EQ(alloc::live_objects(), before);
}

TEST(ReclaimStackMemory, LeakyLeaksByDesign) {
    alloc::scope_check check;
    containers::stack_core<int, smr::leaky<>> st;
    for (int i = 0; i < 1000; ++i) st.push(i);
    for (int i = 0; i < 1000; ++i) st.pop();
    // 1000 nodes popped, none freed: the "GC will get it" fiction.
    EXPECT_GE(check.leaked_objects(), 1000);
}

}  // namespace
