// Unit + concurrency tests for allocation statistics and the type-stable
// block pool.
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "alloc/block_pool.hpp"
#include "alloc/counted.hpp"
#include "alloc/stats.hpp"

namespace {

using namespace lfrc::alloc;

TEST(Stats, AllocFreeBalance) {
    const auto before = snapshot();
    note_alloc(128);
    EXPECT_EQ(live_bytes(), before.live_bytes + 128);
    EXPECT_EQ(live_objects(), before.live_objects + 1);
    note_free(128);
    EXPECT_EQ(live_bytes(), before.live_bytes);
    EXPECT_EQ(live_objects(), before.live_objects);
    const auto after = snapshot();
    EXPECT_EQ(after.total_allocations, before.total_allocations + 1);
    EXPECT_EQ(after.total_frees, before.total_frees + 1);
}

TEST(Stats, ScopeCheckDetectsLeak) {
    scope_check check;
    note_alloc(64);
    EXPECT_EQ(check.leaked_objects(), 1);
    EXPECT_EQ(check.leaked_bytes(), 64);
    note_free(64);
    EXPECT_EQ(check.leaked_objects(), 0);
    EXPECT_EQ(check.leaked_bytes(), 0);
}

TEST(Counted, BaseMixinCountsDerivedSize) {
    struct big : counted_base {
        std::uint64_t payload[16];
    };
    scope_check check;
    auto* b = new big;
    EXPECT_GE(check.leaked_bytes(), static_cast<std::int64_t>(sizeof(big)));
    delete b;
    EXPECT_EQ(check.leaked_bytes(), 0);
}

TEST(BlockPool, AllocateReturnsDistinctBlocks) {
    block_pool<32> pool;
    std::set<void*> seen;
    for (int i = 0; i < 3000; ++i) {
        void* p = pool.allocate();
        ASSERT_NE(p, nullptr);
        EXPECT_TRUE(seen.insert(p).second) << "duplicate live block";
        std::memset(p, 0xAB, 32);
    }
    EXPECT_EQ(pool.blocks_carved(), 3000u);
    for (void* p : seen) pool.deallocate(p);
}

TEST(BlockPool, RecyclesLifo) {
    block_pool<16> pool;
    void* a = pool.allocate();
    void* b = pool.allocate();
    pool.deallocate(a);
    pool.deallocate(b);
    // LIFO: most recently freed comes back first.
    EXPECT_EQ(pool.allocate(), b);
    EXPECT_EQ(pool.allocate(), a);
}

TEST(BlockPool, FootprintMonotone) {
    scope_check check;
    {
        block_pool<64> pool;
        EXPECT_EQ(pool.footprint_bytes(), 0u);
        std::vector<void*> blocks;
        for (int i = 0; i < 2000; ++i) blocks.push_back(pool.allocate());
        const auto grown = pool.footprint_bytes();
        EXPECT_GT(grown, 0u);
        for (void* p : blocks) pool.deallocate(p);
        // Freeing everything does NOT shrink the pool — the property the
        // paper contrasts LFRC against (experiment E4).
        EXPECT_EQ(pool.footprint_bytes(), grown);
    }
    // Pool destruction returns the chunks.
    EXPECT_EQ(check.leaked_bytes(), 0);
}

TEST(BlockPool, TypedPoolConstructsAndRecycles) {
    struct node {
        int value;
        node* next;
    };
    typed_pool<node> pool;
    node* n = pool.create(node{41, nullptr});
    EXPECT_EQ(n->value, 41);
    pool.recycle(n);
    node* m = pool.create(node{7, nullptr});
    EXPECT_EQ(m, n) << "type-stable pool must reuse the freed slot";
    EXPECT_EQ(m->value, 7);
    pool.recycle(m);
}

TEST(BlockPool, ConcurrentAllocFreeNoDuplicates) {
    constexpr int threads = 4;
    constexpr int iters = 20000;
    block_pool<24> pool;
    std::atomic<bool> duplicate{false};
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            std::vector<void*> held;
            for (int i = 0; i < iters; ++i) {
                void* p = pool.allocate();
                // Stamp ownership and verify nobody else holds this block.
                auto* word = static_cast<std::uint64_t*>(p);
                const std::uint64_t stamp =
                    (static_cast<std::uint64_t>(t) << 32) | static_cast<std::uint32_t>(i);
                *word = stamp;
                held.push_back(p);
                if ((i & 7) == 0) {
                    for (void* h : held) {
                        if (*static_cast<std::uint64_t*>(h) >> 32 !=
                                static_cast<std::uint64_t>(t) &&
                            h == held.back()) {
                            duplicate = true;
                        }
                    }
                }
                if (held.size() > 64 || (i & 3) == 0) {
                    pool.deallocate(held.back());
                    held.pop_back();
                }
            }
            for (void* p : held) pool.deallocate(p);
        });
    }
    for (auto& w : workers) w.join();
    EXPECT_FALSE(duplicate.load());
}

}  // namespace
