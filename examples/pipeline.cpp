// Multi-stage pipeline over LFRC Michael-Scott queues.
//
//   $ ./examples/pipeline [--items=50000]
//
// generators -> [queue A] -> transformers -> [queue B] -> aggregator
//
// Demonstrates LFRC containers composing into a larger concurrent system:
// each stage runs on its own threads, hands items downstream through
// lock-free queues, and no stage ever needs a garbage collector. The
// aggregator verifies the end-to-end checksum; the epilogue verifies that
// every queue node was reclaimed.
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "containers/queue_core.hpp"
#include "lfrc/lfrc.hpp"
#include "smr/counted.hpp"
#include "util/cli.hpp"
#include "util/stopwatch.hpp"

using dom = lfrc::domain;
using queue_t = lfrc::containers::queue_core<std::int64_t, lfrc::smr::counted<dom>>;

namespace {
constexpr std::int64_t poison = -1;
}

int main(int argc, char** argv) {
    lfrc::util::cli_flags flags(argc, argv);
    const std::int64_t items = static_cast<std::int64_t>(flags.get_u64("items", 50000));
    constexpr int generators = 2;
    constexpr int transformers = 2;

    std::atomic<std::int64_t> checksum{0};
    lfrc::util::stopwatch clock;
    {
        queue_t stage_a;
        queue_t stage_b;

        std::vector<std::thread> pool;
        // Stage 1: generators emit [1, items], split between them; the last
        // generator to finish posts one poison pill per transformer.
        std::atomic<int> generators_left{generators};
        for (int g = 0; g < generators; ++g) {
            pool.emplace_back([&, g] {
                for (std::int64_t i = 1 + g; i <= items; i += generators) {
                    stage_a.enqueue(i);
                }
                if (generators_left.fetch_sub(1, std::memory_order_acq_rel) == 1) {
                    for (int t = 0; t < transformers; ++t) stage_a.enqueue(poison);
                }
            });
        }
        // Stage 2: transformers square each item; on poison, forward it
        // downstream and exit.
        for (int t = 0; t < transformers; ++t) {
            pool.emplace_back([&] {
                for (;;) {
                    auto v = stage_a.dequeue();
                    if (!v) {
                        std::this_thread::yield();
                        continue;
                    }
                    if (*v == poison) {
                        stage_b.enqueue(poison);
                        return;
                    }
                    stage_b.enqueue(*v * *v);
                }
            });
        }
        // Stage 3: single aggregator sums the squares.
        pool.emplace_back([&] {
            int poisons = 0;
            std::int64_t sum = 0;
            while (poisons < transformers) {
                auto v = stage_b.dequeue();
                if (!v) {
                    std::this_thread::yield();
                    continue;
                }
                if (*v == poison) {
                    ++poisons;
                } else {
                    sum += *v;
                }
            }
            checksum.store(sum);
        });
        for (auto& t : pool) t.join();
    }  // queues destroyed at quiescence
    const double seconds = clock.elapsed_seconds();

    // sum of squares 1..n = n(n+1)(2n+1)/6
    const std::int64_t expected = items * (items + 1) * (2 * items + 1) / 6;
    std::printf("items processed : %lld\n", static_cast<long long>(items));
    std::printf("checksum        : %lld (expected %lld) -> %s\n",
                static_cast<long long>(checksum.load()),
                static_cast<long long>(expected),
                checksum.load() == expected ? "OK" : "MISMATCH");
    std::printf("elapsed         : %.3f s  (%.1f items/ms through 3 stages)\n", seconds,
                static_cast<double>(items) / (seconds * 1000.0));

    lfrc::flush_deferred_frees();
    const auto counters = dom::counters().snapshot();
    std::printf("nodes leaked    : %lld\n",
                static_cast<long long>(counters.objects_created) -
                    static_cast<long long>(counters.objects_destroyed));
    return checksum.load() == expected ? 0 : 1;
}
