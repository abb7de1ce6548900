// Closed-loop workload driver for the store benchmarks (experiment E9).
//
// Runs N worker threads, each issuing a get/put/erase/cas mix against an
// Ops adapter, with zipf- or uniform-distributed keys (YCSB generator from
// util/random.hpp, ranks scrambled through util::mixed_index so the hot set
// spreads across shards). Closed loop: every worker issues its next op the
// moment the previous one returns, for `duration_seconds`, then the driver
// joins everyone and releases the workers' epoch slots so a subsequent
// drain can reach zero.
//
// Determinism: per-thread RNGs derive from util::mix_seed(global_seed(),
// cfg.seed, thread index), so a run is replayable with LFRC_SEED. The only
// nondeterminism is the duration cutoff (wall clock), which is the point
// of a throughput benchmark.
//
// The Ops concept (duck-typed; adapters below):
//
//   void do_put(std::uint64_t key, std::uint64_t value, std::uint64_t now_ns);
//   bool do_get(std::uint64_t key, std::uint64_t now_ns);   // true = hit
//   bool do_erase(std::uint64_t key, std::uint64_t now_ns);
//   bool do_cas(std::uint64_t key, std::uint64_t value, std::uint64_t now_ns);
//   static constexpr const char* name();
#pragma once

#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "reclaim/epoch.hpp"
#include "store/store.hpp"
#include "util/hash.hpp"
#include "util/random.hpp"
#include "util/spin_barrier.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_registry.hpp"

namespace lfrc::store {

struct workload_config {
    int threads = 4;
    double duration_seconds = 0.4;
    std::uint64_t keyspace = 1ULL << 14;
    int get_percent = 80;  ///< remainder after get/erase/cas goes to put
    int erase_percent = 0;
    int cas_percent = 0;
    double zipf_theta = 0.99;     ///< <= 0 selects uniform keys
    std::uint64_t value_ttl_ns = 0;  ///< 0 = values never expire
    std::uint64_t seed = 1;
    double preload_fraction = 1.0;  ///< fraction of keyspace put() before start
};

struct workload_result {
    std::uint64_t total_ops = 0;
    std::uint64_t gets = 0;
    std::uint64_t hits = 0;
    std::uint64_t puts = 0;
    std::uint64_t erases = 0;
    std::uint64_t cas_tried = 0;
    std::uint64_t cas_ok = 0;
    double seconds = 0.0;

    double mops() const {
        return seconds > 0.0 ? static_cast<double>(total_ops) / seconds / 1e6 : 0.0;
    }
    double hit_rate() const {
        return gets > 0 ? static_cast<double>(hits) / static_cast<double>(gets) : 0.0;
    }
};

/// Run `cfg` against `ops`. Blocks until the run completes. After joining
/// the workers, releases their epoch-domain slots (clear_slot contract:
/// legal exactly because the owning threads have exited and the slot
/// indices were recorded before the join).
template <typename Ops>
workload_result run_workload(Ops& ops, const workload_config& cfg) {
    const int threads = cfg.threads > 0 ? cfg.threads : 1;
    const std::uint64_t keyspace = cfg.keyspace > 0 ? cfg.keyspace : 1;
    const util::zipf_gen zipf(keyspace, cfg.zipf_theta);

    // Preload so gets have something to hit from the first sample.
    {
        auto preload = static_cast<std::uint64_t>(cfg.preload_fraction *
                                                  static_cast<double>(keyspace));
        if (preload > keyspace) preload = keyspace;
        const std::uint64_t now = cfg.value_ttl_ns != 0 ? util::steady_now_ns() : 0;
        for (std::uint64_t rank = 0; rank < preload; ++rank) {
            const std::uint64_t key = util::mixed_index(rank, keyspace);
            ops.do_put(key, rank, now);
        }
    }

    util::spin_barrier barrier(static_cast<std::size_t>(threads) + 1);
    std::atomic<bool> stop{false};
    std::vector<workload_result> partial(static_cast<std::size_t>(threads));
    std::vector<std::size_t> slots(static_cast<std::size_t>(threads));
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(threads));

    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            // Record the slot now: after join it identifies this worker's
            // epoch record for the graceful clear_slot below.
            slots[static_cast<std::size_t>(t)] = util::thread_registry::instance().slot();
            util::xoshiro256 rng(util::mix_seed(util::global_seed(), cfg.seed,
                                                static_cast<std::uint64_t>(t)));
            workload_result local;
            // TTL runs need a clock; cache it and refresh every 256 ops so
            // the clock read stays off the per-op path.
            std::uint64_t now = cfg.value_ttl_ns != 0 ? util::steady_now_ns() : 0;
            std::uint64_t ops_since_clock = 0;
            barrier.arrive_and_wait();
            while (!stop.load(std::memory_order_relaxed)) {
                if (cfg.value_ttl_ns != 0 && ++ops_since_clock >= 256) {
                    ops_since_clock = 0;
                    now = util::steady_now_ns();
                }
                const std::uint64_t key = util::mixed_index(zipf(rng), keyspace);
                const std::uint64_t roll = rng.below(100);
                if (roll < static_cast<std::uint64_t>(cfg.get_percent)) {
                    ++local.gets;
                    if (ops.do_get(key, now)) ++local.hits;
                } else if (roll < static_cast<std::uint64_t>(cfg.get_percent +
                                                             cfg.erase_percent)) {
                    ++local.erases;
                    ops.do_erase(key, now);
                } else if (roll < static_cast<std::uint64_t>(
                                      cfg.get_percent + cfg.erase_percent +
                                      cfg.cas_percent)) {
                    ++local.cas_tried;
                    if (ops.do_cas(key, rng(), now)) ++local.cas_ok;
                } else {
                    ++local.puts;
                    ops.do_put(key, rng(), now);
                }
                ++local.total_ops;
            }
            partial[static_cast<std::size_t>(t)] = local;
        });
    }

    barrier.arrive_and_wait();
    const auto t0 = std::chrono::steady_clock::now();
    std::this_thread::sleep_for(std::chrono::duration<double>(cfg.duration_seconds));
    stop.store(true, std::memory_order_relaxed);
    for (auto& w : workers) w.join();
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();

    // Graceful shard-drain path: the workers are joined (can never run
    // again), so clearing their epoch slots is legal and lets a subsequent
    // flush/drain reach zero even though the OS threads — whose
    // thread_local destructors normally reset the slot state — are gone
    // without having exited any still-pinned sections. Slots with a live
    // pin at join time would otherwise stall the epoch forever.
    reclaim::epoch_domain::global().clear_slots(slots.data(), slots.size());

    workload_result total;
    total.seconds = seconds;
    for (const auto& p : partial) {
        total.total_ops += p.total_ops;
        total.gets += p.gets;
        total.hits += p.hits;
        total.puts += p.puts;
        total.erases += p.erases;
        total.cas_tried += p.cas_tried;
        total.cas_ok += p.cas_ok;
    }
    return total;
}

// ---- Ops adapters --------------------------------------------------------

/// LFRC store, epoch-borrowed read fast path (the headline configuration).
template <typename Domain>
struct kv_store_borrow_ops {
    using store_t = kv_store<smr::borrowed<Domain>, std::uint64_t, std::uint64_t>;
    explicit kv_store_borrow_ops(store_t& s, std::uint64_t ttl = 0)
        : store(s), ttl_ns(ttl) {}

    static constexpr const char* name() { return "lfrc-borrow"; }
    bool do_get(std::uint64_t k, std::uint64_t now) {
        return store.get(k, now).has_value();
    }
    void do_put(std::uint64_t k, std::uint64_t v, std::uint64_t now) {
        store.put(k, v, ttl_ns, now);
    }
    bool do_erase(std::uint64_t k, std::uint64_t now) { return store.erase(k, now); }
    bool do_cas(std::uint64_t k, std::uint64_t v, std::uint64_t now) {
        const auto cur = store.get_versioned(k, now);
        return store.cas(k, cur.version, v, ttl_ns, now);
    }

    store_t& store;
    std::uint64_t ttl_ns;
};

/// LFRC store, fully counted reads (every lookup pays LFRCLoad traffic) —
/// the cost of the paper's Figure-2 discipline without the borrow escape.
template <typename Domain>
struct kv_store_counted_ops {
    using store_t = kv_store<smr::borrowed<Domain>, std::uint64_t, std::uint64_t>;
    explicit kv_store_counted_ops(store_t& s, std::uint64_t ttl = 0)
        : store(s), ttl_ns(ttl) {}

    static constexpr const char* name() { return "lfrc-counted"; }
    bool do_get(std::uint64_t k, std::uint64_t now) {
        return store.get_counted(k, now).has_value();
    }
    void do_put(std::uint64_t k, std::uint64_t v, std::uint64_t now) {
        store.put(k, v, ttl_ns, now);
    }
    bool do_erase(std::uint64_t k, std::uint64_t now) { return store.erase(k, now); }
    bool do_cas(std::uint64_t k, std::uint64_t v, std::uint64_t now) {
        const auto cur = store.get_versioned(k, now);
        return store.cas(k, cur.version, v, ttl_ns, now);
    }

    store_t& store;
    std::uint64_t ttl_ns;
};

/// Any kv_store instantiation by its policy name — the generic adapter the
/// E9 policy matrix loops over (counted / borrowed / ebr / hp / leaky all
/// run the identical store body).
template <typename Policy>
struct kv_store_policy_ops {
    using store_t = kv_store<Policy, std::uint64_t, std::uint64_t>;
    explicit kv_store_policy_ops(store_t& s, std::uint64_t ttl = 0)
        : store(s), ttl_ns(ttl) {}

    static constexpr const char* name() { return store_t::policy_name(); }
    bool do_get(std::uint64_t k, std::uint64_t now) {
        return store.get(k, now).has_value();
    }
    void do_put(std::uint64_t k, std::uint64_t v, std::uint64_t now) {
        store.put(k, v, ttl_ns, now);
    }
    bool do_erase(std::uint64_t k, std::uint64_t now) { return store.erase(k, now); }
    bool do_cas(std::uint64_t k, std::uint64_t v, std::uint64_t now) {
        const auto cur = store.get_versioned(k, now);
        return store.cas(k, cur.version, v, ttl_ns, now);
    }

    store_t& store;
    std::uint64_t ttl_ns;
};

}  // namespace lfrc::store
