// Model checks for kv_store's online growth (store.hpp "growth"): a
// config{1,1} store holding eight keys takes a ninth, which doubles the
// index from one bucket to two, while a put, a get and an erase race on
// keys of the new upper sub-bucket — the one whose dummy anchor the racing
// put inserts and publishes. Everything runs under the shadow heap, so a
// dummy freed while an anchor link still names it is a use-after-free, and
// one never freed is a leak.
//
// The seeded mutant (kv_store::mutate_publish_before_link) publishes a new
// dummy in the segment table before the DCAS that links it into its chain.
// A reader that starts from it in that window walks a chain that is not
// there yet (the dummy's next is still empty); and if the erase unlinks the
// dummy's successor first, the DCAS fails and the published dummy is an
// orphan, so the put's key hangs off it where a walk from the head cannot
// see it. Unbounded exploration caught it at every base seed tried (1-8:
// first catch at schedule 4-36); the pinned seed 8101 catches it at
// schedule 26, inside the CI quick cell's LFRC_SIM_SCHEDULES=500 cap.
// Bounded exploration (1-3 preemptions, 2,000 schedules each) never did:
// the window needs several switches. The clean control runs the same
// harness at preemption bounds 1 and 2 and unbounded.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>
#include <vector>

#include "sim_test_support.hpp"
#include "smr/deferred.hpp"
#include "store/store.hpp"
#include "util/backoff.hpp"
#include "util/hash.hpp"

namespace {

using namespace sim_tests;

using store_t = lfrc::store::kv_store<lfrc::smr::deferred<>, std::uint64_t, std::uint64_t>;

constexpr int k_budget = 500;  // the CI quick cell's cap

/// The first n keys whose image falls in the upper (top bit 1) or lower
/// half — the two sub-buckets the first doubling splits the chain into —
/// in image order, which is their order in the chain.
std::vector<std::uint64_t> keys_in_half(bool upper, std::size_t n) {
    std::vector<std::uint64_t> out;
    for (std::uint64_t k = 1; out.size() < n; ++k) {
        if ((lfrc::util::mix64(k) >> 63) == (upper ? 1u : 0u)) out.push_back(k);
    }
    std::sort(out.begin(), out.end(), [](std::uint64_t a, std::uint64_t b) {
        return lfrc::util::mix64(a) < lfrc::util::mix64(b);
    });
    return out;
}

struct keys_t {
    std::vector<std::uint64_t> lower = keys_in_half(false, 5);
    std::vector<std::uint64_t> upper = keys_in_half(true, 6);
    // Preloaded: lower[0..3] and upper[1..4], eight keys in one bucket.
    // The put's key sorts first in the upper half and the erased key right
    // after it, where the new dummy links in; upper[5] is never written.
    std::uint64_t grow_key() const { return lower[4]; }  // the ninth: doubles
    std::uint64_t put_key() const { return upper[0]; }
    std::uint64_t erase_key() const { return upper[1]; }
    std::uint64_t get_key() const { return upper[2]; }  // present throughout
};

std::uint64_t value_of(std::uint64_t k) { return k * 3 + 1; }

void build_growth_race(sim::env& e) {
    const auto keys = std::make_shared<keys_t>();
    auto s = std::make_shared<store_t>(store_t::config{1, 1});
    for (std::size_t i = 0; i < 4; ++i) {
        s->put(keys->lower[i], value_of(keys->lower[i]));
        s->put(keys->upper[i + 1], value_of(keys->upper[i + 1]));
    }
    if (s->bucket_count() != 1) sim::fail_here("test-bug", "grew before the race");
    auto erased = std::make_shared<bool>(false);
    // The other three start once the index has doubled (voluntary yields,
    // not preemptions), so they race the growing put's value install and
    // each other over the new upper sub-bucket, whose dummy the put makes.
    const auto after_doubling = [s] {
        lfrc::util::backoff bo;
        while (s->bucket_count() < 2) bo();
    };
    e.spawn("grow", [s, keys] { s->put(keys->grow_key(), value_of(keys->grow_key())); });
    e.spawn("put", [s, keys, after_doubling] {
        after_doubling();
        s->put(keys->put_key(), value_of(keys->put_key()));
    });
    e.spawn("get", [s, keys, after_doubling] {
        after_doubling();
        if (s->get(keys->get_key()) != value_of(keys->get_key())) {
            sim::fail_here("store-invariant", "a get missed a key present throughout");
        }
    });
    e.spawn("erase", [s, keys, erased, after_doubling] {
        after_doubling();
        *erased = s->erase(keys->erase_key());
    });
    e.on_quiesce([s, keys, erased] {
        if (s->bucket_count() != 2) {
            sim::fail_here("store-invariant", "nine keys in one bucket did not double it");
        }
        if (!*erased || s->get(keys->erase_key()).has_value()) {
            sim::fail_here("store-invariant", "the erase did not take its key out");
        }
        if (s->size() != 9) {
            sim::fail_here("store-invariant", "a walk from the head does not see nine keys");
        }
        for (const auto& half : {keys->lower, keys->upper}) {
            for (std::uint64_t k : half) {
                if (k == keys->erase_key()) continue;
                const bool written = k != keys->upper[5];
                if (s->get(k) != (written ? std::optional(value_of(k)) : std::nullopt)) {
                    sim::fail_here("store-invariant", "a key reads wrong after the doubling");
                }
            }
        }
        if (s->drain() != 0) {
            sim::fail_here("residual-pending", "store drain left deferred frees");
        }
        expect_quiesced_drain();
    });
}

template <bool Mutated>
sim::result run_growth_race(std::uint64_t seed, int schedules, int preemption_bound) {
    store_t::mutate_publish_before_link().store(Mutated, std::memory_order_relaxed);
    auto o = opts(seed, schedules);
    o.preemption_bound = preemption_bound;
    const auto res = sim::explore(o, build_growth_race);
    store_t::mutate_publish_before_link().store(false, std::memory_order_relaxed);
    return res;
}

int budget_in_force(int budget) {
    if (const char* cap = std::getenv("LFRC_SIM_SCHEDULES")) {
        const long v = std::atol(cap);
        if (v > 0 && v < budget) return static_cast<int>(v);
    }
    return budget;
}

TEST(SimStoreGrowth, PublishBeforeLinkMutantIsCaught) {
    const auto res = run_growth_race</*Mutated=*/true>(8101, k_budget, -1);
    ASSERT_TRUE(res.failed) << "publishing a dummy before its linking DCAS survived "
                            << k_budget << " schedules";
    EXPECT_EQ(res.kind, "store-invariant") << res.report;
    EXPECT_LE(res.schedules_run, k_budget);
}

TEST(SimStoreGrowth, CleanAtPreemptionBound1) {
    const auto res = run_growth_race</*Mutated=*/false>(8201, 200, 1);
    EXPECT_CLEAN(res);
    EXPECT_EQ(res.schedules_run, budget_in_force(200));
}

TEST(SimStoreGrowth, CleanAtPreemptionBound2) {
    const auto res = run_growth_race</*Mutated=*/false>(8202, 200, 2);
    EXPECT_CLEAN(res);
    EXPECT_EQ(res.schedules_run, budget_in_force(200));
}

TEST(SimStoreGrowth, CleanUnbounded) {
    const auto res = run_growth_race</*Mutated=*/false>(8203, 300, -1);
    EXPECT_CLEAN(res);
    EXPECT_EQ(res.schedules_run, budget_in_force(300));
}

}  // namespace
