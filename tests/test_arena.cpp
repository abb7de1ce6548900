// Unit tests for lfrc::alloc::arena — size-class routing, the chunk
// record's home, magazine refill/return, remote-free draining, whole-chain
// stealing, ABA-tag wraparound, payloads the allocator never writes, and
// the >max_payload system-heap fallback. Each test builds
// its own arena instance so counters and freelists start empty; the
// process-wide instance() behind counted_base is exercised by every other
// test in the suite.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "alloc/arena.hpp"
#include "alloc/slab.hpp"
#include "util/thread_registry.hpp"

namespace {

using namespace lfrc::alloc;

std::unique_ptr<arena> fresh_arena() { return std::make_unique<arena>(); }

std::size_t my_slot() { return lfrc::util::thread_registry::instance().slot(); }

TEST(ArenaRouting, SizeClassLookup) {
    EXPECT_EQ(arena_testing::klass_of(1), 0);
    EXPECT_EQ(arena_testing::klass_of(48), 0);
    EXPECT_EQ(arena_testing::klass_of(49), 1);
    EXPECT_EQ(arena_testing::klass_of(64), 1);
    EXPECT_EQ(arena_testing::klass_of(65), 2);
    EXPECT_EQ(arena_testing::klass_of(72), 2);
    EXPECT_EQ(arena_testing::klass_of(80), 2);
    EXPECT_EQ(arena_testing::klass_of(81), 3);
    EXPECT_EQ(arena_testing::klass_of(2048), 12);
    EXPECT_EQ(arena_testing::klass_of(2049), -1);  // system-heap route
}

TEST(ArenaRouting, ChunkRecordGivesFreshBlockHomeAndClass) {
    auto a = fresh_arena();
    void* p = a->allocate(100);  // class 4 (<=128)
    void* q = a->allocate(100);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(arena_testing::class_of_block(*a, p), 4);
    EXPECT_EQ(arena_testing::home_of(*a, 4, p), my_slot());
    // No header: a block is exactly its class, 16-aligned, and the next
    // carve from the same chunk is the next 128 bytes.
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 16, 0u);
    EXPECT_EQ(static_cast<std::byte*>(q) - static_cast<std::byte*>(p), 128);

    // A block another slot carves comes from that slot's own chunk.
    std::size_t other = 0;
    void* r = nullptr;
    std::thread([&] {
        other = my_slot();
        r = a->allocate(100);
    }).join();
    EXPECT_NE(other, my_slot());
    EXPECT_EQ(arena_testing::class_of_block(*a, r), 4);
    EXPECT_EQ(arena_testing::home_of(*a, 4, r), other);
    EXPECT_EQ(arena_testing::class_of_block(*a, &other), -1);
    for (void* b : {p, q, r}) a->deallocate(b, 100);
}

// Address -> index is a multiply by a precomputed reciprocal, not a
// division: it must be exact for every stride in use, up to the last slot
// of a full region (arithmetic only; the far slots are never touched).
TEST(ArenaRouting, IndexOfInvertsSlotAtForEveryStride) {
    std::vector<std::size_t> strides(std::begin(arena::class_sizes),
                                     std::end(arena::class_sizes));
    for (std::size_t s : {8, 16, 24, 32, 40}) strides.push_back(s);  // block_pool
    constexpr auto last = static_cast<std::uint32_t>(slab_directory::max_slots - 1);
    for (const std::size_t stride : strides) {
        slab_directory dir(stride, /*track_stats=*/false);
        std::uint32_t first = 0;
        dir.carve(my_slot(), first);  // reserves the region
        for (std::uint32_t i = 0; i < last; i += 4099) {
            ASSERT_EQ(dir.index_of(dir.slot_at(i)), i) << "stride " << stride;
        }
        EXPECT_EQ(dir.index_of(dir.slot_at(last)), last) << "stride " << stride;
    }
}

TEST(ArenaRouting, OversizeFallsBackToSystemHeap) {
    auto a = fresh_arena();
    const auto before = a->snapshot();
    void* p = a->allocate(4096);
    ASSERT_NE(p, nullptr);
    std::memset(p, 0xab, 4096);
    a->deallocate(p, 4096);
    const auto after = a->snapshot();
    EXPECT_EQ(after.fallback_allocs, before.fallback_allocs + 1);
    EXPECT_EQ(after.carved, before.carved);  // no slab involvement
}

TEST(ArenaMagazine, LifoRefillAndReturn) {
    auto a = fresh_arena();
    const std::size_t k = static_cast<std::size_t>(arena_testing::klass_of(64));
    const std::size_t s = my_slot();

    std::vector<void*> ps;
    for (int i = 0; i < 8; ++i) ps.push_back(a->allocate(64));
    EXPECT_EQ(arena_testing::magazine_size(*a, k, s), 0u);

    for (void* p : ps) a->deallocate(p, 64);
    EXPECT_EQ(arena_testing::magazine_size(*a, k, s), 8u);

    // Reallocation drains the magazine LIFO — the most recently freed
    // (cache-hot) block comes back first, and nothing new is carved.
    const auto carved_before = a->snapshot().carved;
    for (int i = 7; i >= 0; --i) {
        void* p = a->allocate(64);
        EXPECT_EQ(p, ps[static_cast<std::size_t>(i)]);
    }
    EXPECT_EQ(arena_testing::magazine_size(*a, k, s), 0u);
    EXPECT_EQ(a->snapshot().carved, carved_before);
    EXPECT_GE(a->snapshot().magazine_hits, 8u);
    for (void* p : ps) a->deallocate(p, 64);
}

TEST(ArenaMagazine, OverflowSpillsToOwnRemoteList) {
    auto a = fresh_arena();
    const std::size_t k = static_cast<std::size_t>(arena_testing::klass_of(48));
    const std::size_t s = my_slot();

    const std::size_t n = arena::magazine_cap + 8;
    std::vector<void*> ps;
    for (std::size_t i = 0; i < n; ++i) ps.push_back(a->allocate(48));
    for (void* p : ps) a->deallocate(p, 48);

    EXPECT_EQ(arena_testing::magazine_size(*a, k, s), arena::magazine_cap);
    EXPECT_NE(tagged_head::index_of(arena_testing::remote_head(*a, k, s)),
              tagged_head::null_index);

    // Everything is recycled: reallocating n blocks carves nothing fresh.
    const auto carved_before = a->snapshot().carved;
    const std::set<void*> freed(ps.begin(), ps.end());
    std::set<void*> seen;
    for (std::size_t i = 0; i < n; ++i) {
        void* p = a->allocate(48);
        EXPECT_TRUE(seen.insert(p).second) << "block handed out twice";
        EXPECT_TRUE(freed.count(p)) << "allocation bypassed the recycled set";
    }
    EXPECT_EQ(a->snapshot().carved, carved_before);
    for (void* p : seen) a->deallocate(p, 48);
}

TEST(ArenaRemote, CrossThreadFreeRoutesToHomeShard) {
    auto a = fresh_arena();
    const std::size_t k = static_cast<std::size_t>(arena_testing::klass_of(96));
    const std::size_t home = my_slot();

    std::vector<void*> ps;
    for (int i = 0; i < 16; ++i) ps.push_back(a->allocate(96));

    // A different thread frees them: every block must land on the HOME
    // shard's remote list (home is immutable), not the freeing thread's.
    std::thread([&] {
        EXPECT_NE(my_slot(), home);
        for (void* p : ps) a->deallocate(p, 96);
    }).join();

    EXPECT_NE(tagged_head::index_of(arena_testing::remote_head(*a, k, home)),
              tagged_head::null_index);

    // The home thread drains its own remote list one tagged pop at a time.
    const auto carved_before = a->snapshot().carved;
    std::set<void*> seen;
    for (int i = 0; i < 16; ++i) seen.insert(a->allocate(96));
    EXPECT_EQ(seen.size(), 16u);
    EXPECT_EQ(a->snapshot().carved, carved_before);
    EXPECT_GE(a->snapshot().remote_pops, 16u);
    for (void* p : seen) a->deallocate(p, 96);
}

TEST(ArenaRemote, EmptyShardStealsPeerChain) {
    auto a = fresh_arena();
    const std::size_t home = my_slot();

    std::vector<void*> ps;
    for (int i = 0; i < 12; ++i) ps.push_back(a->allocate(128));
    // Free from a peer thread so the blocks pile up on OUR remote list...
    std::thread([&] { for (void* p : ps) a->deallocate(p, 128); }).join();

    // ...then a third thread with nothing local steals the whole chain.
    std::set<void*> stolen;
    std::thread([&] {
        EXPECT_NE(my_slot(), home);
        for (int i = 0; i < 12; ++i) stolen.insert(a->allocate(128));
        for (void* p : stolen) a->deallocate(p, 128);
    }).join();

    EXPECT_EQ(stolen.size(), 12u);
    for (void* p : ps) EXPECT_TRUE(stolen.count(p)) << "steal missed a block";
    EXPECT_GE(a->snapshot().chain_steals, 1u);
    // Freeing from the thief routed the blocks straight back home.
    const std::size_t k = static_cast<std::size_t>(arena_testing::klass_of(128));
    EXPECT_NE(tagged_head::index_of(arena_testing::remote_head(*a, k, home)),
              tagged_head::null_index);
}

TEST(ArenaRemote, TagWrapsAroundCleanly) {
    auto a = fresh_arena();
    const std::size_t k = static_cast<std::size_t>(arena_testing::klass_of(192));
    const std::size_t s = my_slot();

    // Park the shard's ABA tag just below 2^32, then force remote-path
    // traffic through it: only equality matters, so wrap must be invisible.
    arena_testing::set_remote_tag(*a, k, s, 0xfffffffdu);

    const std::size_t n = arena::magazine_cap + 6;  // 6 frees overflow to remote
    std::vector<void*> ps;
    for (std::size_t i = 0; i < n; ++i) ps.push_back(a->allocate(192));
    for (void* p : ps) a->deallocate(p, 192);

    const std::uint32_t tag_after =
        tagged_head::tag_of(arena_testing::remote_head(*a, k, s));
    EXPECT_LT(tag_after, 0xfffffffdu);  // wrapped past zero

    const auto carved_before = a->snapshot().carved;
    std::set<void*> seen;
    for (std::size_t i = 0; i < n; ++i) {
        void* p = a->allocate(192);
        EXPECT_TRUE(seen.insert(p).second) << "block handed out twice";
    }
    EXPECT_EQ(a->snapshot().carved, carved_before);
    for (void* p : seen) a->deallocate(p, 192);
}

// The allocator keeps nothing of its own inside a block: whichever way a
// block is freed and handed out again, its payload comes back exactly as
// the last owner left it. This is what lets the owner's remote pop
// pre-read the link of a block that a thief may already have handed to a
// new owner (DESIGN.md §15).
TEST(ArenaPayload, FreeingAndReallocatingNeverWritesThePayload) {
#if defined(LFRC_ARENA_ASAN)
    GTEST_SKIP() << "ASan poisons freed payloads; arena_uaf_probe reads them";
#else
    auto a = fresh_arena();
    constexpr std::size_t sz = 72;
    const std::size_t n = arena::magazine_cap + 16;
    const std::size_t k = static_cast<std::size_t>(arena_testing::klass_of(sz));
    const std::size_t home = my_slot();
    std::map<void*, unsigned char> pattern;

    const auto fill = [&](void* p) {
        const auto v = static_cast<unsigned char>(0x11 + pattern.size() * 7);
        std::memset(p, v, sz);
        pattern[p] = v;
    };
    const auto intact = [&](void* p) {
        const auto it = pattern.find(p);
        if (it == pattern.end()) return false;
        const auto* b = static_cast<const unsigned char*>(p);
        for (std::size_t i = 0; i < sz; ++i) {
            if (b[i] != it->second) return false;
        }
        return true;
    };
    const auto reallocate_all = [&](std::vector<void*>& ps) {
        ps.clear();
        for (std::size_t i = 0; i < n; ++i) {
            void* p = a->allocate(sz);
            EXPECT_TRUE(intact(p)) << "block " << i << " came back altered";
            ps.push_back(p);
        }
    };

    std::vector<void*> ps;
    for (std::size_t i = 0; i < n; ++i) {
        ps.push_back(a->allocate(sz));
        fill(ps.back());
    }
    const auto carved = a->snapshot().carved;

    // Locally, and past a magazine overflow onto this slot's remote list.
    for (void* p : ps) a->deallocate(p, sz);
    EXPECT_EQ(arena_testing::magazine_size(*a, k, home), arena::magazine_cap);
    reallocate_all(ps);

    // Remotely: another slot frees, this slot pops its remote list.
    std::thread([&] { for (void* p : ps) a->deallocate(p, sz); }).join();
    reallocate_all(ps);

    // Through a chain steal: a peer frees onto this slot's remote list,
    // and a third slot with nothing of its own takes the whole chain.
    std::thread([&] { for (void* p : ps) a->deallocate(p, sz); }).join();
    const auto steals = a->snapshot().chain_steals;
    std::thread([&] {
        EXPECT_NE(my_slot(), home);
        reallocate_all(ps);
    }).join();
    EXPECT_GT(a->snapshot().chain_steals, steals);

    EXPECT_EQ(a->snapshot().carved, carved) << "every block was a recycled one";
    for (void* p : ps) a->deallocate(p, sz);
#endif
}

TEST(ArenaConcurrent, ProducerConsumerChurnIsLossless) {
    auto a = fresh_arena();
    constexpr int kThreads = 4;
    constexpr int kIters = 4000;

    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
        ts.emplace_back([&] {
            std::vector<void*> held;
            held.reserve(8);
            for (int i = 0; i < kIters; ++i) {
                void* p = a->allocate(64);
                std::memset(p, 0x5a, 64);
                held.push_back(p);
                if (held.size() == 8) {
                    for (void* q : held) a->deallocate(q, 64);
                    held.clear();
                }
            }
            for (void* q : held) a->deallocate(q, 64);
        });
    }
    for (auto& t : ts) t.join();

    // Churn of 16k allocations reused a small working set: fresh carves are
    // bounded by transient magazine/remote imbalance, not by traffic.
    EXPECT_LE(a->snapshot().carved, 1024u);
    // Every allocation took exactly one of the four paths.
    const auto st = a->snapshot();
    EXPECT_EQ(st.magazine_hits + st.remote_pops + st.chain_steals + st.carved,
              static_cast<std::uint64_t>(kThreads) * kIters);
}

}  // namespace
