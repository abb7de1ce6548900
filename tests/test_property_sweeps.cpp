// Parameterized property sweeps: the core invariants (token conservation,
// model equivalence, leak-freedom) re-checked across a grid of seeds,
// thread counts, and operation mixes, on both engines. These are the
// "many cheap randomized runs" layer on top of the targeted suites.
#include <gtest/gtest.h>

#include <deque>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include "containers/lfrc_list.hpp"
#include "containers/queue_core.hpp"
#include "containers/stack_core.hpp"
#include "lfrc_test_helpers.hpp"
#include "smr/counted.hpp"
#include "snark/snark_lfrc.hpp"
#include "util/random.hpp"
#include "util/spin_barrier.hpp"

namespace {

using namespace lfrc;
using lfrc_tests::drain_epochs;

enum class engine_kind { mcas, locked };

std::string engine_name(engine_kind k) {
    return k == engine_kind::mcas ? "mcas" : "locked";
}

// ---- Concurrent deque conservation sweep --------------------------------------

struct deque_sweep_params {
    engine_kind engine;
    int threads;
    int push_percent;  // bias of the mix
    std::uint64_t seed;
};

class DequeConservationSweep : public ::testing::TestWithParam<deque_sweep_params> {};

template <typename D>
void run_deque_conservation(const deque_sweep_params& p) {
    snark::snark_deque<D, std::int64_t> dq;
    constexpr int per_thread = 1500;
    const std::int64_t total = static_cast<std::int64_t>(p.threads) * per_thread;
    std::vector<std::atomic<int>> seen(static_cast<std::size_t>(total));
    for (auto& s : seen) s.store(0);
    util::spin_barrier barrier{static_cast<std::size_t>(p.threads)};
    std::vector<std::thread> pool;
    for (int t = 0; t < p.threads; ++t) {
        pool.emplace_back([&, t] {
            util::xoshiro256 rng{p.seed * 977 + static_cast<std::uint64_t>(t)};
            barrier.arrive_and_wait();
            std::int64_t next = static_cast<std::int64_t>(t) * per_thread;
            const std::int64_t limit = next + per_thread;
            while (next < limit) {
                if (rng.below(100) < static_cast<std::uint64_t>(p.push_percent)) {
                    if (rng.below(2) == 0) {
                        dq.push_left(next);
                    } else {
                        dq.push_right(next);
                    }
                    ++next;
                } else {
                    const auto got = rng.below(2) == 0 ? dq.pop_left() : dq.pop_right();
                    if (got) seen[static_cast<std::size_t>(*got)].fetch_add(1);
                }
            }
        });
    }
    for (auto& t : pool) t.join();
    while (auto got = dq.pop_left()) seen[static_cast<std::size_t>(*got)].fetch_add(1);
    for (std::int64_t i = 0; i < total; ++i) {
        ASSERT_EQ(seen[static_cast<std::size_t>(i)].load(), 1)
            << "engine=" << engine_name(p.engine) << " threads=" << p.threads
            << " push%=" << p.push_percent << " seed=" << p.seed << " token=" << i;
    }
}

TEST_P(DequeConservationSweep, EveryTokenExactlyOnce) {
    const auto& p = GetParam();
    if (p.engine == engine_kind::mcas) {
        run_deque_conservation<domain>(p);
    } else {
        run_deque_conservation<locked_domain>(p);
    }
}

std::vector<deque_sweep_params> deque_grid() {
    std::vector<deque_sweep_params> grid;
    for (engine_kind e : {engine_kind::mcas, engine_kind::locked}) {
        for (int threads : {2, 4}) {
            for (int push_percent : {52, 70}) {
                for (std::uint64_t seed : {1ull, 42ull}) {
                    grid.push_back({e, threads, push_percent, seed});
                }
            }
        }
    }
    return grid;
}

INSTANTIATE_TEST_SUITE_P(Grid, DequeConservationSweep, ::testing::ValuesIn(deque_grid()),
                         [](const auto& name_info) {
                             const auto& p = name_info.param;
                             return engine_name(p.engine) + "_t" +
                                    std::to_string(p.threads) + "_p" +
                                    std::to_string(p.push_percent) + "_s" +
                                    std::to_string(p.seed);
                         });

// ---- Sequential model sweeps (deque / stack / queue / set) --------------------

class SequentialModelSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SequentialModelSweep, DequeMatchesStdDeque) {
    snark::snark_deque<domain, std::int64_t> dq;
    std::deque<std::int64_t> model;
    util::xoshiro256 rng{GetParam()};
    std::int64_t token = 0;
    for (int i = 0; i < 2500; ++i) {
        switch (rng.below(4)) {
            case 0: dq.push_left(token); model.push_front(token++); break;
            case 1: dq.push_right(token); model.push_back(token++); break;
            case 2: {
                auto got = dq.pop_left();
                if (model.empty()) {
                    ASSERT_FALSE(got.has_value());
                } else {
                    ASSERT_EQ(got, model.front());
                    model.pop_front();
                }
                break;
            }
            default: {
                auto got = dq.pop_right();
                if (model.empty()) {
                    ASSERT_FALSE(got.has_value());
                } else {
                    ASSERT_EQ(got, model.back());
                    model.pop_back();
                }
                break;
            }
        }
    }
}

TEST_P(SequentialModelSweep, StackMatchesVector) {
    containers::stack_core<std::int64_t, smr::counted<domain>> st;
    std::vector<std::int64_t> model;
    util::xoshiro256 rng{GetParam() ^ 0xabcdef};
    for (int i = 0; i < 2500; ++i) {
        if (rng.below(2) == 0) {
            st.push(i);
            model.push_back(i);
        } else {
            auto got = st.pop();
            if (model.empty()) {
                ASSERT_FALSE(got.has_value());
            } else {
                ASSERT_EQ(got, model.back());
                model.pop_back();
            }
        }
    }
}

TEST_P(SequentialModelSweep, QueueMatchesStdDeque) {
    containers::queue_core<std::int64_t, smr::counted<domain>> q;
    std::deque<std::int64_t> model;
    util::xoshiro256 rng{GetParam() ^ 0x123456};
    for (int i = 0; i < 2500; ++i) {
        if (rng.below(2) == 0) {
            q.enqueue(i);
            model.push_back(i);
        } else {
            auto got = q.dequeue();
            if (model.empty()) {
                ASSERT_FALSE(got.has_value());
            } else {
                ASSERT_EQ(got, model.front());
                model.pop_front();
            }
        }
    }
}

TEST_P(SequentialModelSweep, ListSetMatchesStdSet) {
    containers::lfrc_list_set<domain, std::int64_t> s;
    std::set<std::int64_t> model;
    util::xoshiro256 rng{GetParam() ^ 0x777};
    for (int i = 0; i < 2500; ++i) {
        const auto key = static_cast<std::int64_t>(rng.below(48));
        switch (rng.below(3)) {
            case 0: ASSERT_EQ(s.insert(key), model.insert(key).second); break;
            case 1: ASSERT_EQ(s.erase(key), model.erase(key) > 0); break;
            default: ASSERT_EQ(s.contains(key), model.count(key) > 0); break;
        }
    }
    ASSERT_EQ(s.size(), model.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SequentialModelSweep,
                         ::testing::Values(3u, 17u, 99u, 256u, 1024u, 4711u, 31337u,
                                           65537u));

// ---- Refcount ledger sweep -----------------------------------------------------

// After any quiescent workload: births + increments == decrements when
// everything is destroyed (the §1 "eventually reaches zero" invariant).
class LedgerSweep : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(LedgerSweep, BalancesAfterConcurrentChurn) {
    const auto [threads, seed] = GetParam();
    drain_epochs();
    const auto before = domain::counters().snapshot();
    {
        snark::snark_deque<domain, std::int64_t> dq;
        containers::stack_core<std::int64_t, smr::counted<domain>> st;
        util::spin_barrier barrier{static_cast<std::size_t>(threads)};
        std::vector<std::thread> pool;
        for (int t = 0; t < threads; ++t) {
            pool.emplace_back([&, t] {
                util::xoshiro256 rng{seed + static_cast<std::uint64_t>(t) * 13};
                barrier.arrive_and_wait();
                for (int i = 0; i < 2000; ++i) {
                    switch (rng.below(6)) {
                        case 0: dq.push_left(i); break;
                        case 1: dq.push_right(i); break;
                        case 2: dq.pop_left(); break;
                        case 3: dq.pop_right(); break;
                        case 4: st.push(i); break;
                        default: st.pop(); break;
                    }
                }
            });
        }
        for (auto& t : pool) t.join();
    }
    drain_epochs();
    const auto after = domain::counters().snapshot();
    const auto created = after.objects_created - before.objects_created;
    const auto destroyed = after.objects_destroyed - before.objects_destroyed;
    const auto incs = after.increments - before.increments;
    const auto decs = after.decrements - before.decrements;
    EXPECT_EQ(created, destroyed);
    EXPECT_EQ(created + incs, decs);
}

INSTANTIATE_TEST_SUITE_P(Grid, LedgerSweep,
                         ::testing::Combine(::testing::Values(2, 4),
                                            ::testing::Values(7u, 77u, 777u)));

}  // namespace
