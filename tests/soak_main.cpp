// Standalone soak runner (NOT part of ctest): hammers every LFRC structure
// concurrently for a configurable duration, checking conservation and leak
// invariants continuously. Use for long-running validation:
//
//   $ ./build/tests/soak --seconds=60 --threads=4
//
// Exit code 0 iff every invariant held.
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "containers/lfrc_hash_set.hpp"
#include "containers/queue_core.hpp"
#include "containers/stack_core.hpp"
#include "lfrc/lfrc.hpp"
#include "smr/counted.hpp"
#include "snark/snark_fixed.hpp"
#include "snark/snark_lfrc.hpp"
#include "util/cli.hpp"
#include "util/random.hpp"
#include "util/stopwatch.hpp"

using dom = lfrc::domain;

int main(int argc, char** argv) {
    lfrc::util::cli_flags flags(argc, argv);
    const double seconds = flags.get_double("seconds", 10.0);
    const int threads = static_cast<int>(flags.get_u64("threads", 4));

    std::printf("soak: %d threads, %.0f s, all structures, mcas engine\n", threads,
                seconds);

    const auto before = dom::counters().snapshot();
    std::atomic<std::uint64_t> violations{0};
    std::atomic<std::int64_t> deque_balance{0};  // pushes - pops that returned
    std::atomic<std::int64_t> stack_balance{0};
    std::atomic<std::int64_t> queue_balance{0};
    {
        lfrc::snark::snark_deque<dom, std::int64_t> deque;
        lfrc::snark::snark_deque_fixed<dom> fixed_deque;
        lfrc::containers::stack_core<std::int64_t, lfrc::smr::counted<dom>> stack;
        lfrc::containers::queue_core<std::int64_t, lfrc::smr::counted<dom>> queue;
        lfrc::containers::lfrc_hash_set<dom, std::int64_t> set{32};

        std::atomic<bool> stop{false};
        std::vector<std::thread> pool;
        for (int t = 0; t < threads; ++t) {
            pool.emplace_back([&, t] {
                lfrc::util::xoshiro256 rng{static_cast<std::uint64_t>(t) * 7 + 3};
                while (!stop.load(std::memory_order_acquire)) {
                    switch (rng.below(10)) {
                        case 0:
                            deque.push_left(1);
                            deque_balance.fetch_add(1);
                            break;
                        case 1:
                            deque.push_right(1);
                            deque_balance.fetch_add(1);
                            break;
                        case 2:
                            if (deque.pop_left()) deque_balance.fetch_sub(1);
                            break;
                        case 3:
                            if (deque.pop_right()) deque_balance.fetch_sub(1);
                            break;
                        case 4:
                            stack.push(7);
                            stack_balance.fetch_add(1);
                            break;
                        case 5:
                            if (stack.pop()) stack_balance.fetch_sub(1);
                            break;
                        case 6:
                            queue.enqueue(9);
                            queue_balance.fetch_add(1);
                            break;
                        case 7:
                            if (queue.dequeue()) queue_balance.fetch_sub(1);
                            break;
                        case 8: {
                            const auto k = static_cast<std::int64_t>(rng.below(512));
                            if (rng.below(2) == 0) {
                                set.insert(k);
                            } else {
                                set.erase(k);
                            }
                            break;
                        }
                        default: {
                            fixed_deque.push_right(3);
                            if (!fixed_deque.pop_left() && !fixed_deque.pop_right()) {
                                // We just pushed; with other poppers around a
                                // miss is fine, but track gross anomalies via
                                // the balances below instead.
                            }
                            break;
                        }
                    }
                }
            });
        }
        lfrc::util::stopwatch clock;
        while (clock.elapsed_seconds() < seconds) {
            std::this_thread::sleep_for(std::chrono::milliseconds(200));
        }
        stop = true;
        for (auto& t : pool) t.join();

        // Drain and check balances.
        while (deque.pop_left()) deque_balance.fetch_sub(1);
        while (stack.pop()) stack_balance.fetch_sub(1);
        while (queue.dequeue()) queue_balance.fetch_sub(1);
        while (fixed_deque.pop_left()) {}
        if (deque_balance.load() != 0) {
            std::printf("VIOLATION: deque balance %lld\n",
                        static_cast<long long>(deque_balance.load()));
            violations.fetch_add(1);
        }
        if (stack_balance.load() != 0) {
            std::printf("VIOLATION: stack balance %lld\n",
                        static_cast<long long>(stack_balance.load()));
            violations.fetch_add(1);
        }
        if (queue_balance.load() != 0) {
            std::printf("VIOLATION: queue balance %lld\n",
                        static_cast<long long>(queue_balance.load()));
            violations.fetch_add(1);
        }
    }
    lfrc::flush_deferred_frees(256);
    const auto after = dom::counters().snapshot();
    const auto leaked = (after.objects_created - before.objects_created) -
                        (after.objects_destroyed - before.objects_destroyed);
    if (leaked != 0) {
        std::printf("VIOLATION: %llu objects leaked\n",
                    static_cast<unsigned long long>(leaked));
        violations.fetch_add(1);
    }
    std::printf("soak done: %llu violations, %llu objects churned\n",
                static_cast<unsigned long long>(violations.load()),
                static_cast<unsigned long long>(after.objects_created -
                                                before.objects_created));
    return violations.load() == 0 ? 0 : 1;
}
