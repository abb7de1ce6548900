// Unit tests for the utility kit: RNG, histogram, backoff, barrier, table.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "util/backoff.hpp"
#include "util/cacheline.hpp"
#include "util/histogram.hpp"
#include "util/random.hpp"
#include "util/spin_barrier.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

using namespace lfrc::util;

TEST(Random, SplitmixAdvancesState) {
    std::uint64_t s = 42;
    const auto a = splitmix64(s);
    const auto b = splitmix64(s);
    EXPECT_NE(a, b);
    EXPECT_NE(s, 42u);
}

TEST(Random, XoshiroDeterministicPerSeed) {
    xoshiro256 a{7}, b{7}, c{8};
    for (int i = 0; i < 100; ++i) {
        const auto va = a();
        EXPECT_EQ(va, b());
        // Different seeds diverge almost surely.
        if (va != c()) return;
    }
    FAIL() << "seeds 7 and 8 produced identical 100-value streams";
}

TEST(Random, BelowStaysInRange) {
    xoshiro256 rng{123};
    for (int i = 0; i < 10000; ++i) {
        EXPECT_LT(rng.below(17), 17u);
    }
    EXPECT_EQ(rng.below(1), 0u);
}

TEST(Random, BelowCoversRange) {
    xoshiro256 rng{99};
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) seen.insert(rng.below(4));
    EXPECT_EQ(seen.size(), 4u);
}

TEST(Random, ChancePercentExtremes) {
    xoshiro256 rng{5};
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance_percent(0));
        EXPECT_TRUE(rng.chance_percent(100));
    }
}

TEST(Random, ThreadRngDistinctAcrossThreads) {
    std::uint64_t main_value = thread_rng()();
    std::uint64_t other_value = 0;
    std::thread t([&] { other_value = thread_rng()(); });
    t.join();
    EXPECT_NE(main_value, other_value);
}

TEST(Histogram, BucketIndexMonotonic) {
    int last = -1;
    for (std::uint64_t v : {0ull, 1ull, 15ull, 16ull, 17ull, 100ull, 1000ull, 1ull << 20,
                            1ull << 40}) {
        const int idx = latency_histogram::bucket_index(v);
        EXPECT_GE(idx, last);
        last = idx;
        EXPECT_GE(latency_histogram::bucket_upper_bound(idx), v);
    }
}

TEST(Histogram, PercentilesOrdered) {
    latency_histogram h;
    xoshiro256 rng{11};
    for (int i = 0; i < 100000; ++i) h.record(rng.below(1'000'000) + 1);
    EXPECT_EQ(h.count(), 100000u);
    const auto p50 = h.percentile(0.50);
    const auto p99 = h.percentile(0.99);
    EXPECT_LE(p50, p99);
    EXPECT_LE(p99, h.max());
    // Uniform distribution: median should land near 500k within bucket error.
    EXPECT_GT(p50, 400'000u);
    EXPECT_LT(p50, 600'000u);
}

// A bucket's upper bound can exceed every sample in it: a lone 1000-ns
// sample lands in the bucket bounded by 1024. No percentile may report
// more than the largest value recorded.
TEST(Histogram, PercentilesNeverExceedMax) {
    latency_histogram h;
    h.record(1000);
    EXPECT_LE(h.percentile(0.5), h.max());
    EXPECT_LE(h.percentile(0.999), h.max());
}

TEST(Histogram, MergeAccumulates) {
    latency_histogram a, b;
    a.record(10);
    b.record(1000);
    b.record(2000);
    a.merge(b);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_EQ(a.max(), 2000u);
}

TEST(Histogram, EmptyIsZero) {
    latency_histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.percentile(0.99), 0u);
    EXPECT_EQ(h.mean(), 0.0);
}

TEST(Backoff, DoesNotHang) {
    backoff bo{16};
    for (int i = 0; i < 20; ++i) bo();
    bo.reset();
    bo();
    SUCCEED();
}

TEST(SpinBarrier, SynchronizesThreads) {
    constexpr int threads = 4;
    constexpr int rounds = 50;
    spin_barrier barrier{threads};
    std::atomic<int> arrivals{0};
    std::vector<std::thread> pool;
    std::atomic<bool> failed{false};
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&] {
            for (int r = 0; r < rounds; ++r) {
                arrivals.fetch_add(1);
                barrier.arrive_and_wait();
                // After the barrier every thread of round r has arrived.
                if (arrivals.load() < threads * (r + 1)) failed = true;
                barrier.arrive_and_wait();
            }
        });
    }
    for (auto& t : pool) t.join();
    EXPECT_FALSE(failed.load());
    EXPECT_EQ(arrivals.load(), threads * rounds);
}

TEST(Stopwatch, MeasuresElapsed) {
    stopwatch sw;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_GE(sw.elapsed_ns(), 1'000'000u);
    sw.restart();
    EXPECT_LT(sw.elapsed_seconds(), 1.0);
}

TEST(Table, PrintsAlignedMarkdown) {
    table t{{"name", "ops"}};
    t.add_row({"lfrc", "12345"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("| name |"), std::string::npos);
    EXPECT_NE(out.find("| lfrc |"), std::string::npos);
    EXPECT_NE(out.find("|------|"), std::string::npos);
}

TEST(Table, FormatHelpers) {
    EXPECT_EQ(table::fmt(1.2345, 2), "1.23");
    EXPECT_EQ(table::fmt_count(999), "999");
    EXPECT_EQ(table::fmt_count(50'000), "50.0k");
    EXPECT_EQ(table::fmt_count(12'000'000), "12.0M");
}

TEST(Cacheline, PaddedSeparatesElements) {
    padded<std::atomic<int>> arr[2];
    const auto a = reinterpret_cast<std::uintptr_t>(&arr[0].value);
    const auto b = reinterpret_cast<std::uintptr_t>(&arr[1].value);
    EXPECT_GE(b - a, cacheline_size);
}

}  // namespace
