// lfrc::store::kv_store — sequential semantics, TTL expiry, version-cas
// conflict rules, graceful drain, and a concurrent churn test; plus the
// same store body under the manual smr policies (DESIGN.md §9/§10), the
// store's memory layout, and the index's growth under every policy it
// supports.
//
// Time never comes from a clock here: every expiry test passes explicit
// now_ns values, which is the store's own contract (sim determinism).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "alloc/arena.hpp"
#include "alloc/stats.hpp"
#include "lfrc/lfrc.hpp"
#include "store/store.hpp"
#include "store/workload.hpp"
#include "util/hash.hpp"

namespace {

using namespace lfrc;

/// The multiplicative inverse of an odd number modulo 2^64 (Newton's
/// iteration doubles the correct low bits each step, from 3).
constexpr std::uint64_t inverse_mod_2_64(std::uint64_t a) {
    std::uint64_t x = a;
    for (int i = 0; i < 5; ++i) x *= 2 - a * x;
    return x;
}

/// The inverse of util::mix64: each xorshift by 33 is its own inverse, and
/// each multiply is undone by its constant's inverse.
std::uint64_t unmix64(std::uint64_t h) {
    h ^= h >> 33;
    h *= inverse_mod_2_64(0xc4ceb9fe1a85ec53ULL);
    h ^= h >> 33;
    h *= inverse_mod_2_64(0xff51afd7ed558ccdULL);
    h ^= h >> 33;
    return h;
}

/// The key whose image is the boundary of sub-bucket j at `level`: the
/// key a dummy anchor ties with.
std::uint64_t boundary_key(std::uint64_t j, unsigned level) {
    return unmix64(j << (64 - level));
}

template <typename P>
class StoreTest : public ::testing::Test {
  protected:
    using store_t = store::kv_store<P, std::uint64_t, std::string>;

    void TearDown() override {
        EXPECT_EQ(flush_deferred_frees(64), 0u)
            << "a store test leaked an epoch pin or a counted reference";
    }
};

using BorrowedPolicies = ::testing::Types<smr::borrowed<domain>, smr::borrowed<locked_domain>>;
TYPED_TEST_SUITE(StoreTest, BorrowedPolicies);

TYPED_TEST(StoreTest, GetOfAbsentKeyMisses) {
    typename TestFixture::store_t s;
    EXPECT_FALSE(s.get(1).has_value());
    EXPECT_FALSE(s.get_counted(1).has_value());
    EXPECT_FALSE(s.erase(1));
    EXPECT_EQ(s.size(), 0u);
    EXPECT_EQ(s.drain(), 0u);
}

TYPED_TEST(StoreTest, PutGetOverwriteErase) {
    typename TestFixture::store_t s;
    s.put(7, "seven");
    EXPECT_EQ(s.get(7).value_or(""), "seven");
    EXPECT_EQ(s.get_counted(7).value_or(""), "seven");
    s.put(7, "SEVEN");  // overwrite in place
    EXPECT_EQ(s.get(7).value_or(""), "SEVEN");
    EXPECT_EQ(s.size(), 1u);
    EXPECT_TRUE(s.erase(7));
    EXPECT_FALSE(s.get(7).has_value());
    EXPECT_FALSE(s.erase(7)) << "double erase must miss";
    EXPECT_EQ(s.size(), 0u);
    EXPECT_EQ(s.drain(), 0u);
}

TYPED_TEST(StoreTest, KeysSpreadAcrossShardsIndependently) {
    typename TestFixture::store_t s(
        typename TestFixture::store_t::config{4, 8});
    EXPECT_EQ(s.shard_count(), 4u);
    for (std::uint64_t k = 0; k < 200; ++k) s.put(k, std::to_string(k));
    EXPECT_EQ(s.size(), 200u);
    for (std::uint64_t k = 0; k < 200; ++k) {
        ASSERT_EQ(s.get(k).value_or("?"), std::to_string(k)) << k;
    }
    for (std::uint64_t k = 0; k < 200; k += 2) EXPECT_TRUE(s.erase(k));
    EXPECT_EQ(s.size(), 100u);
    EXPECT_EQ(s.drain(), 0u);
}

TYPED_TEST(StoreTest, VersionsStartAtZeroAndAdvancePerWrite) {
    typename TestFixture::store_t s;
    auto v = s.get_versioned(1);
    EXPECT_FALSE(v.found);
    EXPECT_EQ(v.version, 0u) << "absent key reads as version 0";
    s.put(1, "a");
    const auto v1 = s.get_versioned(1);
    ASSERT_TRUE(v1.found);
    EXPECT_GT(v1.version, 0u);
    s.put(1, "b");
    const auto v2 = s.get_versioned(1);
    EXPECT_GT(v2.version, v1.version) << "every put bumps the slot version";
    EXPECT_EQ(s.drain(), 0u);
}

TYPED_TEST(StoreTest, CasSucceedsOnCurrentVersionOnly) {
    typename TestFixture::store_t s;
    // Create-if-absent: version 0 means "no value ever written".
    EXPECT_TRUE(s.cas(1, 0, "first"));
    EXPECT_EQ(s.get(1).value_or(""), "first");
    EXPECT_FALSE(s.cas(1, 0, "dup")) << "create-if-absent must fail when present";

    const auto v = s.get_versioned(1);
    ASSERT_TRUE(v.found);
    EXPECT_TRUE(s.cas(1, v.version, "second"));
    EXPECT_EQ(s.get(1).value_or(""), "second");
    EXPECT_FALSE(s.cas(1, v.version, "stale"))
        << "a cas from a superseded version must fail";
    EXPECT_EQ(s.get(1).value_or(""), "second");
    EXPECT_EQ(s.drain(), 0u);
}

TYPED_TEST(StoreTest, CasConflictsInterleavedWithPutsAndErases) {
    typename TestFixture::store_t s;
    s.put(9, "v1");
    const auto v1 = s.get_versioned(9);
    s.put(9, "v2");  // moves the version past v1
    EXPECT_FALSE(s.cas(9, v1.version, "lost-update"))
        << "an intervening put must defeat the cas";
    const auto v2 = s.get_versioned(9);
    EXPECT_TRUE(s.erase(9));
    EXPECT_FALSE(s.cas(9, v2.version, "resurrect"))
        << "erase removed the entry: the version restarted at 0";
    EXPECT_TRUE(s.cas(9, 0, "fresh")) << "reincarnation is create-if-absent";
    EXPECT_EQ(s.get(9).value_or(""), "fresh");
    EXPECT_EQ(s.drain(), 0u);
}

TYPED_TEST(StoreTest, TtlValueExpiresLazilyOnRead) {
    typename TestFixture::store_t s;
    s.put(3, "mortal", /*ttl_ns=*/100, /*now_ns=*/1000);  // expires at 1100
    s.put(4, "immortal");                                 // ttl 0: never expires
    EXPECT_EQ(s.get(3, 1099).value_or(""), "mortal") << "not yet expired";
    EXPECT_FALSE(s.get(3, 1100).has_value()) << "deadline reached";
    EXPECT_FALSE(s.get_counted(3, 2000).has_value());
    EXPECT_EQ(s.get(4, ~std::uint64_t{0} - 1).value_or(""), "immortal");
    EXPECT_EQ(s.stats().expired, 1u) << "exactly one lazy expiry fired";
    // The expired value is gone, but the entry remains; a new put revives it.
    s.put(3, "reborn", 0, 3000);
    EXPECT_EQ(s.get(3, 4000).value_or(""), "reborn");
    EXPECT_EQ(s.drain(), 0u);
}

TYPED_TEST(StoreTest, ExpiredValueDoesNotCountAsErased) {
    typename TestFixture::store_t s;
    s.put(5, "soon-dead", /*ttl_ns=*/10, /*now_ns=*/0);
    EXPECT_FALSE(s.erase(5, /*now_ns=*/100))
        << "erasing an entry whose value already expired removes nothing "
           "user-visible";
    EXPECT_EQ(s.drain(), 0u);
}

TYPED_TEST(StoreTest, SweepClearsOnlyExpiredValues) {
    typename TestFixture::store_t s(
        typename TestFixture::store_t::config{2, 4});
    for (std::uint64_t k = 0; k < 20; ++k) {
        // Even keys expire at 50+k, odd keys live forever.
        s.put(k, "v", (k % 2 == 0) ? 50 + k : 0, /*now_ns=*/0);
    }
    EXPECT_EQ(s.size(/*now_ns=*/0), 20u);
    const std::size_t cleared = s.sweep_expired(/*now_ns=*/1000);
    EXPECT_EQ(cleared, 10u);
    EXPECT_EQ(s.stats().expired, 10u);
    EXPECT_EQ(s.size(1000), 10u);
    for (std::uint64_t k = 0; k < 20; ++k) {
        EXPECT_EQ(s.get(k, 1000).has_value(), k % 2 == 1) << k;
    }
    // Idempotent: a second sweep finds nothing left to clear.
    EXPECT_EQ(s.sweep_expired(1000), 0u);
    EXPECT_EQ(s.drain(), 0u);
}

TYPED_TEST(StoreTest, StatsCountEveryOperationKind) {
    typename TestFixture::store_t s;
    s.put(1, "x");
    (void)s.get(1);
    (void)s.get(2);  // miss
    const auto v = s.get_versioned(1);
    EXPECT_TRUE(s.cas(1, v.version, "y"));
    EXPECT_FALSE(s.cas(1, 12345, "n"));
    EXPECT_TRUE(s.erase(1));
    const auto st = s.stats();
    EXPECT_EQ(st.puts, 1u);
    EXPECT_EQ(st.gets, 3u);  // two gets + one get_versioned
    EXPECT_EQ(st.hits, 2u);
    EXPECT_EQ(st.cas_ok, 1u);
    EXPECT_EQ(st.cas_fail, 1u);
    EXPECT_EQ(st.erases, 1u);
    EXPECT_DOUBLE_EQ(st.hit_rate(), 2.0 / 3.0);
    EXPECT_EQ(s.drain(), 0u);
}

// Concurrent churn on a deliberately tiny store (2 shards × 2 buckets, 16
// keys) so every op collides: gets on the borrowed path race puts, erases,
// and version-cas on the same entries. 1-CPU shape: fixed work per thread,
// no standalone churn thread. TearDown's flush check plus ASan/TSan turn
// any protocol slip (lost update, UAF, leaked pin) into a failure.
TYPED_TEST(StoreTest, ConcurrentGetPutEraseCasChurn) {
    using churn_store = store::kv_store<TypeParam, std::uint64_t, std::uint64_t>;
    churn_store s(typename churn_store::config{2, 2});
    constexpr std::uint64_t keyspace = 16;
    constexpr int thread_count = 4;
    constexpr int iters = 3000;

    std::vector<std::thread> workers;
    for (int t = 0; t < thread_count; ++t) {
        workers.emplace_back([&, t] {
            for (int i = 0; i < iters; ++i) {
                const std::uint64_t k =
                    (static_cast<std::uint64_t>(i) * 7 + static_cast<std::uint64_t>(t)) %
                    keyspace;
                switch ((i + t) % 4) {
                    case 0:
                        s.put(k, static_cast<std::uint64_t>(i));
                        break;
                    case 1: {
                        const auto got = s.get(k);
                        if (got) {
                            ASSERT_LT(*got, static_cast<std::uint64_t>(iters))
                                << "a get returned a value no put ever wrote";
                        }
                        break;
                    }
                    case 2: {
                        const auto v = s.get_versioned(k);
                        (void)s.cas(k, v.version, static_cast<std::uint64_t>(i));
                        break;
                    }
                    default:
                        (void)s.erase(k);
                        break;
                }
            }
        });
    }
    for (auto& w : workers) w.join();
    EXPECT_EQ(s.drain(), 0u) << "churn left unreclaimed garbage";
}

// ---- the same store body under the manual smr policies -----------------

template <typename P>
class PolicyStoreTest : public ::testing::Test {};

using Policies = ::testing::Types<smr::ebr<>, smr::hp<>, smr::leaky<>>;
TYPED_TEST_SUITE(PolicyStoreTest, Policies);

TYPED_TEST(PolicyStoreTest, SequentialContractMatchesCountedStore) {
    store::kv_store<TypeParam, std::uint64_t, std::string> s(
        typename store::kv_store<TypeParam, std::uint64_t, std::string>::config{2, 8});
    EXPECT_FALSE(s.get(1).has_value());
    s.put(1, "one");
    EXPECT_EQ(s.get(1).value_or(""), "one");
    EXPECT_EQ(s.get_versioned(1).version, 1u);
    s.put(1, "two");
    EXPECT_EQ(s.get_versioned(1).version, 2u);
    EXPECT_TRUE(s.cas(1, 2, "three"));
    EXPECT_FALSE(s.cas(1, 2, "stale"));
    EXPECT_EQ(s.get(1).value_or(""), "three");
    EXPECT_EQ(s.get_counted(1).value_or(""), "three");
    EXPECT_TRUE(s.erase(1));
    EXPECT_FALSE(s.get(1).has_value());
    EXPECT_TRUE(s.cas(1, 0, "reborn")) << "create-if-absent after erase";
    // TTL contract: expired values miss and don't count as erased.
    s.put(2, "mortal", /*ttl_ns=*/100, /*now_ns=*/0);
    EXPECT_TRUE(s.get(2, 99).has_value());
    EXPECT_FALSE(s.get(2, 100).has_value());
    EXPECT_FALSE(s.erase(2, 200));
    EXPECT_EQ(s.size(200), 1u);  // only key 1 ("reborn") is live
    s.drain();
}

// ---- layout: what a bucket and a key cost, under every store policy ----

template <typename P>
class StoreLayoutTest : public ::testing::Test {};

using StorePolicies = ::testing::Types<smr::counted<domain>, smr::borrowed<domain>,
                                       smr::ebr<>, smr::hp<>, smr::leaky<>,
                                       smr::deferred<>>;
TYPED_TEST_SUITE(StoreLayoutTest, StorePolicies);

// A bucket is an inline head, not a node: building a store allocates no
// node at all, and each new key costs exactly its entry and its value box.
TYPED_TEST(StoreLayoutTest, BucketsAllocateNoNodesAndEachKeyTwo) {
    using store_t = store::kv_store<TypeParam, std::uint64_t, std::uint64_t>;
    TypeParam{}.drain(64);  // earlier tests' garbage must not free mid-count
    const std::int64_t before = alloc::live_objects();
    {
        store_t s(typename store_t::config{4, 64});
        EXPECT_EQ(alloc::live_objects() - before, 0)
            << "constructing " << s.bucket_count() << " buckets allocated nodes";
        constexpr std::int64_t n = 100;
        for (std::uint64_t k = 0; k < static_cast<std::uint64_t>(n); ++k) s.put(k, k);
        EXPECT_EQ(alloc::live_objects() - before, 2 * n) << "one entry + one box per key";
        EXPECT_EQ(s.drain(), 0u);
    }
    EXPECT_EQ(alloc::live_objects(), before);
}

// Past the grow threshold a key still costs its entry and box, and each
// grown bucket one dummy: bucket_count() minus the configured count, once
// every sub-bucket has had a writer (a failing cas is a writer that
// installs nothing). Caught mutant: a dummy marked by a box of its own.
TYPED_TEST(StoreLayoutTest, GrownBucketsCostOneDummyEach) {
    using store_t = store::kv_store<TypeParam, std::uint64_t, std::uint64_t>;
    TypeParam{}.drain(64);
    const std::int64_t before = alloc::live_objects();
    {
        store_t s(typename store_t::config{4, 64});
        constexpr std::int64_t n = 4000;  // past 8 × 256, short of 8 × 512
        for (std::uint64_t k = 0; k < static_cast<std::uint64_t>(n); ++k) s.put(k, k);
        ASSERT_EQ(s.bucket_count(), 512u);
        for (std::uint64_t k = 0; k < static_cast<std::uint64_t>(n); ++k) {
            ASSERT_FALSE(s.cas(k, ~std::uint64_t{0}, 0));
        }
        s.policy().drain(64);  // the failed cas calls' boxes
        EXPECT_EQ(alloc::live_objects() - before,
                  2 * n + static_cast<std::int64_t>(s.bucket_count() - 256))
            << "one entry + one box per key, one dummy per grown bucket";
        EXPECT_EQ(s.drain(), 0u);
    }
    EXPECT_EQ(alloc::live_objects(), before);
}

// ---- growth: the index doubles online, under every store policy --------

template <typename P>
class StoreGrowthTest : public ::testing::Test {};
TYPED_TEST_SUITE(StoreGrowthTest, StorePolicies);

// One level-0 bucket takes keys through six doublings. After each, every
// key written so far reads back, absent keys miss, and bucket_count() is
// the grown count. Every 10th key's image is a level-5 boundary, so
// entries that tie with a dummy are written both before and after their
// dummy exists, and erased and rewritten once the index has grown.
// Caught mutant: no tie-break (an entry and a dummy with one image match).
TYPED_TEST(StoreGrowthTest, EveryKeyReadsBackAcrossDoublings) {
    using store_t = store::kv_store<TypeParam, std::uint64_t, std::uint64_t>;
    store_t s(typename store_t::config{1, 1});
    std::vector<std::uint64_t> keys;
    std::vector<std::uint64_t> boundaries;
    for (std::uint64_t j = 1; j < 32; ++j) {
        boundaries.push_back(boundary_key(j, 5));
        ASSERT_EQ(util::mix64(boundaries.back()), j << 59) << "unmix64 must invert mix64";
    }
    for (std::uint64_t i = 0; keys.size() < 330; ++i) {
        keys.push_back(i % 10 == 0 && i / 10 < boundaries.size() ? boundaries[i / 10]
                                                                 : 1'000'000 + i);
    }
    const auto check_all = [&](std::size_t written) {
        for (std::size_t i = 0; i < keys.size(); ++i) {
            const auto got = s.get(keys[i]);
            if (i < written) {
                ASSERT_EQ(got.value_or(~std::uint64_t{0}), keys[i] ^ 7) << "key #" << i;
                ASSERT_EQ(s.get_counted(keys[i]).value_or(0), keys[i] ^ 7) << "key #" << i;
            } else {
                ASSERT_FALSE(got.has_value()) << "unwritten key #" << i << " hit";
            }
        }
        ASSERT_FALSE(s.get(boundary_key(1, 6)).has_value()) << "never written";
    };
    std::size_t doublings = 0;
    std::size_t buckets = s.bucket_count();
    for (std::size_t i = 0; i < keys.size(); ++i) {
        s.put(keys[i], keys[i] ^ 7);
        if (s.bucket_count() != buckets) {
            ASSERT_EQ(s.bucket_count(), 2 * buckets) << "one doubling at a time";
            buckets = s.bucket_count();
            ++doublings;
            check_all(i + 1);
        }
    }
    EXPECT_EQ(doublings, 6u);
    EXPECT_EQ(s.bucket_count(), 64u);
    for (std::uint64_t b : boundaries) EXPECT_TRUE(s.erase(b));
    for (std::uint64_t k = 0; k < 40; ++k) s.put(2'000'000 + k, 3);
    for (std::uint64_t b : boundaries) EXPECT_FALSE(s.get(b).has_value());
    for (std::uint64_t b : boundaries) s.put(b, b ^ 7);
    check_all(keys.size());
    for (std::uint64_t k = 0; k < 40; ++k) EXPECT_EQ(s.get(2'000'000 + k).value_or(0), 3u);
    EXPECT_EQ(s.size(), keys.size() + 40);
    EXPECT_EQ(s.drain(), 0u);
}

// Four threads churn put/erase/cas/get over a key space eight times what
// one level-0 pair of buckets holds, so the index doubles mid-run. Then
// every key is rewritten and read back, the drain reaches zero, and the
// census returns to where it started. Caught mutant: drain and the
// destructor skip the anchor links (the counted policies leak every dummy).
TYPED_TEST(StoreGrowthTest, ConcurrentChurnGrowsAndDrainsClean) {
    using store_t = store::kv_store<TypeParam, std::uint64_t, std::uint64_t>;
    TypeParam{}.drain(64);
    const std::int64_t before = alloc::live_objects();
    {
        store_t s(typename store_t::config{1, 2});
        constexpr std::uint64_t keyspace = 128;
        constexpr int thread_count = 4;
        constexpr int iters = 3000;
        std::vector<std::thread> workers;
        for (int t = 0; t < thread_count; ++t) {
            workers.emplace_back([&, t] {
                for (int i = 0; i < iters; ++i) {
                    const std::uint64_t k =
                        (static_cast<std::uint64_t>(i) * 13 + static_cast<std::uint64_t>(t)) %
                        keyspace;
                    switch ((i + t) % 5) {
                        case 0:
                        case 1:
                            s.put(k, k);
                            break;
                        case 2:
                            ASSERT_EQ(s.get(k).value_or(k), k);
                            break;
                        case 3:
                            (void)s.cas(k, s.get_versioned(k).version, k);
                            break;
                        default:
                            (void)s.erase(k);
                            break;
                    }
                }
            });
        }
        for (auto& w : workers) w.join();
        EXPECT_GT(s.bucket_count(), 2u) << "the key space should have forced a doubling";
        for (std::uint64_t k = 0; k < keyspace; ++k) s.put(k, k + 1);
        for (std::uint64_t k = 0; k < keyspace; ++k) ASSERT_EQ(s.get(k).value_or(0), k + 1);
        EXPECT_EQ(s.drain(), 0u) << "churn left unreclaimed garbage";
    }
    if constexpr (!std::is_same_v<TypeParam, smr::leaky<>>) {
        // (leaky frees only what is still linked at teardown, by design)
        EXPECT_EQ(alloc::live_objects(), before);
    }
}

// The deferred policy's entry and box — the two nodes a loaded store holds
// per key — fill the arena's 64- and 48-byte classes with no padding.
TEST(StoreLayout, DeferredEntryRoutesToThe64ByteClass) {
    using store_t = store::kv_store<smr::deferred<>, std::uint64_t, std::uint64_t>;
    const int k = alloc::arena_testing::klass_of(sizeof(store_t::entry_type));
    ASSERT_GE(k, 0);
    EXPECT_EQ(alloc::arena::class_sizes[k], 64u);
    const int b = alloc::arena_testing::klass_of(sizeof(store_t::box_type));
    ASSERT_GE(b, 0);
    EXPECT_EQ(alloc::arena::class_sizes[b], 48u);
}

// The workload driver itself, at a deterministic-ish smoke scale: it must
// run every op kind, produce consistent totals, and leave the epoch domain
// drainable (the clear_slot shutdown path).
TEST(WorkloadDriver, RunsMixAndLeavesEpochDomainDrainable) {
    using store_t = store::kv_store<smr::borrowed<domain>, std::uint64_t, std::uint64_t>;
    store_t s(store_t::config{4, 16});
    store::kv_store_borrow_ops<domain> ops(s);
    store::workload_config cfg;
    cfg.threads = 3;
    cfg.duration_seconds = 0.05;
    cfg.keyspace = 128;
    cfg.get_percent = 60;
    cfg.erase_percent = 10;
    cfg.cas_percent = 10;
    const auto res = store::run_workload(ops, cfg);
    EXPECT_GT(res.total_ops, 0u);
    EXPECT_EQ(res.total_ops, res.gets + res.puts + res.erases + res.cas_tried);
    EXPECT_GT(res.gets, 0u);
    EXPECT_GT(res.puts, 0u);
    EXPECT_GT(res.hits, 0u);
    EXPECT_GE(res.seconds, cfg.duration_seconds);
    EXPECT_EQ(s.drain(), 0u)
        << "worker slots were cleared, so the drain must reach zero";
}

}  // namespace
