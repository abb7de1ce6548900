// Tests for supporting infrastructure not covered elsewhere: CLI flag
// parsing, the benchmark driver, and block-pool details (fresh/recycled
// reporting, index round-trips, stats opt-out).
#include <gtest/gtest.h>

#include <atomic>

#include "alloc/block_pool.hpp"
#include "alloc/stats.hpp"
#include "util/bench_support.hpp"
#include "util/cli.hpp"

namespace {

using namespace lfrc;

TEST(CliFlags, ParsesKeyValuePairs) {
    const char* argv[] = {"prog", "--threads=8", "--duration=0.25", "--name=abc",
                          "--verbose"};
    util::cli_flags flags(5, const_cast<char**>(argv));
    EXPECT_EQ(flags.get_u64("threads", 1), 8u);
    EXPECT_DOUBLE_EQ(flags.get_double("duration", 1.0), 0.25);
    EXPECT_EQ(flags.get_string("name", "x"), "abc");
    EXPECT_TRUE(flags.has("verbose"));
    EXPECT_EQ(flags.get_u64("verbose", 0), 1u) << "bare flags read as 1";
}

TEST(CliFlags, FallsBackWhenAbsent) {
    const char* argv[] = {"prog"};
    util::cli_flags flags(1, const_cast<char**>(argv));
    EXPECT_EQ(flags.get_u64("missing", 42), 42u);
    EXPECT_DOUBLE_EQ(flags.get_double("missing", 2.5), 2.5);
    EXPECT_EQ(flags.get_string("missing", "dflt"), "dflt");
    EXPECT_FALSE(flags.has("missing"));
}

TEST(CliFlags, IgnoresNonFlagArguments) {
    const char* argv[] = {"prog", "positional", "-single", "--good=1"};
    util::cli_flags flags(4, const_cast<char**>(argv));
    EXPECT_TRUE(flags.has("good"));
    EXPECT_FALSE(flags.has("positional"));
    EXPECT_FALSE(flags.has("single"));
}

TEST(BenchSupport, RunForCountsAndTimes) {
    std::atomic<std::uint64_t> side_effect{0};
    const auto result = util::run_for(2, 0.1, [&](int) {
        side_effect.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(result.total_ops, side_effect.load());
    EXPECT_GT(result.total_ops, 0u);
    EXPECT_GE(result.seconds, 0.1);
    EXPECT_LT(result.seconds, 5.0);
    EXPECT_GT(result.ops_per_sec(), 0.0);
    EXPECT_NEAR(result.mops_per_sec() * 1e6, result.ops_per_sec(), 1.0);
}

TEST(BenchSupport, LatencySamplingRecords) {
    const auto result = util::run_for(1, 0.05, [](int) {}, /*record_latency=*/true);
    EXPECT_GT(result.latency.count(), 0u);
    EXPECT_LE(result.latency.count(), result.total_ops);
}

TEST(BenchSupport, ThreadIndexIsPassed) {
    std::atomic<int> seen_mask{0};
    util::run_for(3, 0.05, [&](int t) { seen_mask.fetch_or(1 << t); });
    EXPECT_EQ(seen_mask.load(), 0b111);
}

TEST(BlockPool, AllocateExReportsFreshThenRecycled) {
    alloc::block_pool<16> pool;
    bool fresh = false;
    void* a = pool.allocate_ex(fresh);
    EXPECT_TRUE(fresh) << "first carve is fresh";
    pool.deallocate(a);
    void* b = pool.allocate_ex(fresh);
    EXPECT_FALSE(fresh) << "freelist hit is recycled";
    EXPECT_EQ(a, b);
    pool.deallocate(b);
}

TEST(BlockPool, TrackedPoolCountsChunks) {
    const auto before = alloc::live_bytes();
    {
        alloc::block_pool<64> pool;
        pool.allocate();
        EXPECT_GT(alloc::live_bytes(), before);
    }
    EXPECT_EQ(alloc::live_bytes(), before) << "chunk bytes returned at destruction";
}

TEST(BlockPool, ManyChunksAddressedCorrectly) {
    // Cross the chunk boundary (1024 blocks/chunk) and verify every block
    // is writable and distinct.
    alloc::block_pool<8> pool;
    std::vector<void*> blocks;
    constexpr int n = 3000;
    for (int i = 0; i < n; ++i) {
        void* p = pool.allocate();
        *static_cast<std::uint64_t*>(p) = static_cast<std::uint64_t>(i);
        blocks.push_back(p);
    }
    for (int i = 0; i < n; ++i) {
        EXPECT_EQ(*static_cast<std::uint64_t*>(blocks[static_cast<std::size_t>(i)]),
                  static_cast<std::uint64_t>(i));
    }
    EXPECT_GE(pool.footprint_bytes(), static_cast<std::size_t>(n) * 8);
    for (void* p : blocks) pool.deallocate(p);
}

}  // namespace
