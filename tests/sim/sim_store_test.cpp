// Model checks for lfrc::store::kv_store — get/put/erase/cas racing on ONE
// shard (config{1,1}: a single bucket list, so every interleaving collides).
// The wall-clock churn test in tests/test_store.cpp hopes to hit these
// interleavings; here they are explored deterministically. Total budget
// across this file stays within the CI quick cell's reach (~1700 schedules;
// the LFRC_SIM_SCHEDULES cap shrinks it further).
//
// The store takes time as explicit now_ns parameters precisely so these
// tests are deterministic: no schedule ever reads a clock.
#include <gtest/gtest.h>

#include <array>
#include <memory>

#include "sim_test_support.hpp"
#include "store/store.hpp"

namespace {

using namespace sim_tests;

template <class D>
using store_t = lfrc::store::kv_store<lfrc::smr::borrowed<D>, int, int>;

template <class D>
std::shared_ptr<store_t<D>> one_shard_store() {
    return std::make_shared<store_t<D>>(typename store_t<D>::config{1, 1});
}

// Two puts race a borrowed get on the same key: the get sees nothing or a
// put value (never garbage), quiescent state holds exactly one of the two
// values, and the graceful drain reaches zero.
template <class D>
void check_put_put_get(std::uint64_t seed, int schedules) {
    const auto res = sim::explore(opts(seed, schedules), [](sim::env& e) {
        auto s = one_shard_store<D>();
        e.spawn("put-a", [s] { s->put(1, 100); });
        e.spawn("put-b", [s] { s->put(1, 200); });
        e.spawn("get", [s] {
            const auto got = s->get(1);
            if (got && *got != 100 && *got != 200) {
                sim::fail_here("store-invariant", "get returned a value no put wrote");
            }
        });
        e.on_quiesce([s] {
            const auto final = s->get(1);
            if (!final || (*final != 100 && *final != 200)) {
                sim::fail_here("store-invariant", "quiescent value is not a put value");
            }
            if (s->drain() != 0) {
                sim::fail_here("residual-pending", "store drain left deferred frees");
            }
            expect_quiesced_drain();
        });
    });
    EXPECT_CLEAN(res);
}

TEST(SimStore, PutPutGet_Mcas) { check_put_put_get<mcas_dom>(7001, 300); }

// put races erase on a key with NO prior value — the lost-update detector
// for the dead-entry recheck. Sequentially, erase-before-put leaves the key
// present and returns false (nothing to remove); put-before-erase leaves it
// absent with erase true. The illegal outcome a missing recheck produces:
// the put lands in the just-unlinked entry, the key reads absent, and erase
// still reports false — an update lost with no erase to justify it.
template <class D>
void check_put_vs_erase_lost_update(std::uint64_t seed, int schedules) {
    const auto res = sim::explore(opts(seed, schedules), [](sim::env& e) {
        auto s = one_shard_store<D>();
        auto erased = std::make_shared<bool>(false);
        e.spawn("put", [s] { s->put(1, 42); });
        e.spawn("erase", [s, erased] { *erased = s->erase(1); });
        e.spawn("get", [s] {
            const auto got = s->get(1);
            if (got && *got != 42) {
                sim::fail_here("store-invariant", "get saw a value no put wrote");
            }
        });
        e.on_quiesce([s, erased] {
            const bool present = s->get(1).has_value();
            if (!present && !*erased) {
                sim::fail_here("store-invariant",
                               "put vanished without a user-visible erase "
                               "(dead-entry recheck failed)");
            }
            if (present && s->get(1).value_or(0) != 42) {
                sim::fail_here("store-invariant", "surviving value corrupted");
            }
            if (s->drain() != 0) {
                sim::fail_here("residual-pending", "store drain left deferred frees");
            }
            expect_quiesced_drain();
        });
    });
    EXPECT_CLEAN(res);
}

TEST(SimStore, PutVsEraseLostUpdate_Mcas) {
    check_put_vs_erase_lost_update<mcas_dom>(7101, 400);
}
TEST(SimStore, PutVsEraseLostUpdate_IdealDcas) {
    check_put_vs_erase_lost_update<ideal_dom>(7102, 400);
}

// Two cas() calls from the SAME witnessed version: exactly one may win (the
// LL/SC version cell is the arbiter), and the final value must be the
// winner's. A borrowed get rides along to keep the read path in the race.
template <class D>
void check_cas_single_winner(std::uint64_t seed, int schedules) {
    const auto res = sim::explore(opts(seed, schedules), [](sim::env& e) {
        auto s = one_shard_store<D>();
        s->put(1, 7);
        const auto base = s->get_versioned(1);
        auto won = std::make_shared<std::array<bool, 2>>();
        e.spawn("cas-a", [s, won, base] { (*won)[0] = s->cas(1, base.version, 100); });
        e.spawn("cas-b", [s, won, base] { (*won)[1] = s->cas(1, base.version, 200); });
        e.spawn("get", [s] {
            const auto got = s->get(1);
            if (got && *got != 7 && *got != 100 && *got != 200) {
                sim::fail_here("store-invariant", "get saw an impossible value");
            }
        });
        e.on_quiesce([s, won] {
            if ((*won)[0] && (*won)[1]) {
                sim::fail_here("store-invariant", "both cas calls claimed the same version");
            }
            if (!(*won)[0] && !(*won)[1]) {
                sim::fail_here("store-invariant",
                               "no writer intervened, yet neither cas won");
            }
            const int expect = (*won)[0] ? 100 : 200;
            if (s->get(1).value_or(-1) != expect) {
                sim::fail_here("store-invariant", "final value is not the cas winner's");
            }
            if (s->drain() != 0) {
                sim::fail_here("residual-pending", "store drain left deferred frees");
            }
            expect_quiesced_drain();
        });
    });
    EXPECT_CLEAN(res);
}

TEST(SimStore, CasSingleWinner_Mcas) { check_cas_single_winner<mcas_dom>(7201, 300); }

// Two readers race the lazy expiry of the same TTL'd value: the version-tied
// clear fires at most once, the dead mortal value is never served, and a put
// racing the expiry can never be clobbered by it (the sc from the stale
// version fails). A reader CAN legitimately see 9 — the racing immortal put.
template <class D>
void check_lazy_expiry_race(std::uint64_t seed, int schedules) {
    const auto res = sim::explore(opts(seed, schedules), [](sim::env& e) {
        auto s = one_shard_store<D>();
        s->put(1, 5, /*ttl_ns=*/100, /*now_ns=*/0);  // expires at 100
        e.spawn("r0", [s] {
            if (s->get(1, /*now_ns=*/500).value_or(9) != 9) {
                sim::fail_here("store-invariant", "expired value served");
            }
        });
        e.spawn("r1", [s] {
            if (s->get(1, /*now_ns=*/500).value_or(9) != 9) {
                sim::fail_here("store-invariant", "expired value served");
            }
        });
        e.spawn("put", [s] { s->put(1, 9); });  // immortal overwrite
        e.on_quiesce([s] {
            // The racing put must survive: either it overwrote the mortal
            // value (expiry then failed its sc) or it landed after the
            // clear. Its value can never be lost to the expiry path.
            if (s->get(1, 1000).value_or(-1) != 9) {
                sim::fail_here("store-invariant", "lazy expiry clobbered a fresh put");
            }
            if (s->stats().expired > 1) {
                sim::fail_here("store-invariant", "expiry cleared more than once");
            }
            if (s->drain() != 0) {
                sim::fail_here("residual-pending", "store drain left deferred frees");
            }
            expect_quiesced_drain();
        });
    });
    EXPECT_CLEAN(res);
}

TEST(SimStore, LazyExpiryRace_Mcas) { check_lazy_expiry_race<mcas_dom>(7301, 300); }

}  // namespace
