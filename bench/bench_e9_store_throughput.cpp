// Experiment E9 — end-to-end KV-store throughput by reclaimer policy
// (DESIGN.md §9/§10 / EXPERIMENTS.md E9).
//
// E6 measured the cost of counted loads on one hot pointer in isolation;
// E9 asks the question the paper's §6 comparison actually turns on: what
// does the reclamation discipline cost *in a serving workload*, where
// lookups walk hash buckets, writes churn value objects, and the hot set
// is zipf-skewed? Since the smr unification, every cell runs the SAME
// store body (store::kv_store over a generic list core) — the only
// variable is the smr policy threaded through its template parameter:
//
//   lfrc-counted  every lookup through LFRCLoad/load_linked — the
//                 paper's Figure-2 discipline end to end;
//   lfrc-borrow   epoch-borrowed read fast path — LFRC ownership with
//                 protection-priced reads;
//   ebr           epoch-based retire-on-unlink (what "the GC will
//                 handle it" costs when the GC is an epoch scheme);
//   hp            hazard pointers (Michael 2002);
//   deferred      thread-local deferred RC (ABW/libsref): epoch-pinned
//                 raw reads, link deltas in per-thread tables, review
//                 queue for zero-detection — RC semantics at ~EBR price;
//   leaky         never frees — the unsafe ceiling.
//
// (smr::gc_heap is excluded: the store's versioned value slots need the
// policy's vslot protocol, which a stop-the-world GC has no use for.)
//
// Expected shape: leaky >= ebr ~ lfrc-borrow > hp > lfrc-counted, with
// the borrow-vs-counted gap growing with threads (count DCASes serialize
// on hot keys' value cells; zipf makes some keys hot by construction).
// `retired` is the policy's retire-queue depth sampled after the timed
// run and before drain — it shows how much garbage each discipline lets
// accumulate under load (leaky's figure is its leak).
//
//   --duration=0.4 --threads=1,4,8 --keyspace=16384 --get_percent=80
//   --theta=0.99 [--json=BENCH_e9.json]
#include <cstdio>
#include <string>
#include <vector>

#include "alloc/arena.hpp"
#include "lfrc/lfrc.hpp"
#include "smr/smr.hpp"
#include "store/store.hpp"
#include "store/workload.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace lfrc;

namespace {

std::vector<int> parse_thread_list(const std::string& spec) {
    std::vector<int> out;
    int cur = 0;
    bool have = false;
    for (const char c : spec) {
        if (c >= '0' && c <= '9') {
            cur = cur * 10 + (c - '0');
            have = true;
        } else if (have) {
            out.push_back(cur);
            cur = 0;
            have = false;
        }
    }
    if (have) out.push_back(cur);
    if (out.empty()) out.push_back(1);
    return out;
}

struct run_row {
    std::string policy;
    int threads = 0;
    double mops = 0.0;
    double hit_rate = 0.0;
    std::uint64_t retired = 0;   ///< retire-queue depth after run, before drain
    std::uint64_t residual = 0;  ///< items still pending after bounded drain
};

store::workload_config base_config(const util::cli_flags& flags, int threads) {
    store::workload_config cfg;
    cfg.threads = threads;
    cfg.duration_seconds = flags.get_double("duration", 0.4);
    cfg.keyspace = flags.get_u64("keyspace", 1ULL << 14);
    cfg.get_percent = static_cast<int>(flags.get_u64("get_percent", 80));
    cfg.zipf_theta = flags.get_double("theta", 0.99);
    cfg.seed = flags.get_u64("seed", 1);
    return cfg;
}

/// One cell: build the store for this policy, run the workload, sample the
/// retire-queue depth, then drain. Ops picks the read discipline (counted
/// vs borrowed vs the policy's own guard).
template <typename Ops>
run_row run_store(const store::workload_config& cfg) {
    using store_t = typename Ops::store_t;
    store_t s(typename store_t::config{8, 64});
    Ops ops(s);
    const auto res = store::run_workload(ops, cfg);
    run_row row;
    row.policy = Ops::name();
    row.threads = cfg.threads;
    row.mops = res.mops();
    row.hit_rate = res.hit_rate();
    row.retired = s.reclaimer_pending();
    row.residual = s.drain();
    return row;
}

// The policy matrix: one binary, one loop, one store body. Order is
// cheapest-reclaimer-last so a leak in one cell can't inflate RSS for
// the ones after it.
using run_fn = run_row (*)(const store::workload_config&);
constexpr run_fn kPolicyMatrix[] = {
    &run_store<store::kv_store_counted_ops<domain>>,
    &run_store<store::kv_store_borrow_ops<domain>>,
    &run_store<store::kv_store_policy_ops<smr::ebr<>>>,
    &run_store<store::kv_store_policy_ops<smr::hp<>>>,
    &run_store<store::kv_store_policy_ops<smr::deferred<>>>,
    &run_store<store::kv_store_policy_ops<smr::leaky<>>>,
};

}  // namespace

int main(int argc, char** argv) {
    util::cli_flags flags(argc, argv);
    const auto thread_counts = parse_thread_list(flags.get_string("threads", "1,4,8"));

    std::printf("E9: KV-store throughput (Mops/s), %d%%/%d%% get/put, zipf "
                "theta=%.2f, keyspace=%llu, duration/cell=%.2fs\n\n",
                static_cast<int>(flags.get_u64("get_percent", 80)),
                100 - static_cast<int>(flags.get_u64("get_percent", 80)),
                flags.get_double("theta", 0.99),
                static_cast<unsigned long long>(flags.get_u64("keyspace", 1ULL << 14)),
                flags.get_double("duration", 0.4));

    std::vector<run_row> rows;
    util::table table({"threads", "policy", "Mops/s", "hit-rate", "retired", "residual"});
    for (const int threads : thread_counts) {
        const auto cfg = base_config(flags, threads);
        for (const run_fn run : kPolicyMatrix) {
            const run_row row = run(cfg);
            table.add_row({std::to_string(row.threads), row.policy,
                           util::table::fmt(row.mops), util::table::fmt(row.hit_rate),
                           std::to_string(row.retired), std::to_string(row.residual)});
            rows.push_back(row);
        }
    }
    table.print();

    // The allocation seam all of the above ran through: magazine hits are
    // atomics-free allocations, remote pops/chain steals are the cross-slot
    // recycling traffic, carved is fresh slab growth (stops rising once the
    // working set is resident), fallback counts >2048 B system-heap routes.
    const auto arena_stats = alloc::arena::instance().snapshot();
    std::printf("\narena: footprint=%.1f MiB carved=%llu magazine_hits=%llu "
                "remote_pops=%llu chain_steals=%llu local_frees=%llu "
                "remote_frees=%llu fallback=%llu\n",
                static_cast<double>(arena_stats.footprint_bytes) / (1024.0 * 1024.0),
                static_cast<unsigned long long>(arena_stats.carved),
                static_cast<unsigned long long>(arena_stats.magazine_hits),
                static_cast<unsigned long long>(arena_stats.remote_pops),
                static_cast<unsigned long long>(arena_stats.chain_steals),
                static_cast<unsigned long long>(arena_stats.local_frees),
                static_cast<unsigned long long>(arena_stats.remote_frees),
                static_cast<unsigned long long>(arena_stats.fallback_allocs));

    std::printf("\nshape check: lfrc-borrow should track ebr (both pay one epoch\n"
                "pin per read) and pull away from lfrc-counted as threads grow;\n"
                "leaky is the unsafe ceiling (its `retired` column is the leak).\n"
                "residual=0 confirms every reclaiming run drained its deferred\n"
                "frees after the store's graceful shutdown.\n");

    const std::string json_path = flags.get_string("json", "");
    if (!json_path.empty()) {
        std::FILE* f = std::fopen(json_path.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr, "E9: cannot open %s for writing\n", json_path.c_str());
            return 1;
        }
        std::fprintf(f, "{\n  \"bench\": \"e9_store_throughput\",\n"
                        "  \"get_percent\": %d,\n  \"zipf_theta\": %.2f,\n"
                        "  \"keyspace\": %llu,\n  \"duration_per_cell_sec\": %.3f,\n"
                        "  \"rows\": [\n",
                     static_cast<int>(flags.get_u64("get_percent", 80)),
                     flags.get_double("theta", 0.99),
                     static_cast<unsigned long long>(flags.get_u64("keyspace", 1ULL << 14)),
                     flags.get_double("duration", 0.4));
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const run_row& r = rows[i];
            std::fprintf(f,
                         "    {\"threads\": %d, \"policy\": \"%s\", \"mops\": %.3f, "
                         "\"hit_rate\": %.3f, \"retired\": %llu, \"residual\": %llu}%s\n",
                         r.threads, r.policy.c_str(), r.mops, r.hit_rate,
                         static_cast<unsigned long long>(r.retired),
                         static_cast<unsigned long long>(r.residual),
                         i + 1 < rows.size() ? "," : "");
        }
        std::fprintf(f,
                     "  ],\n  \"arena\": {\"footprint_bytes\": %llu, "
                     "\"carved\": %llu, \"magazine_hits\": %llu, "
                     "\"remote_pops\": %llu, \"chain_steals\": %llu, "
                     "\"local_frees\": %llu, \"remote_frees\": %llu, "
                     "\"fallback_allocs\": %llu}\n}\n",
                     static_cast<unsigned long long>(arena_stats.footprint_bytes),
                     static_cast<unsigned long long>(arena_stats.carved),
                     static_cast<unsigned long long>(arena_stats.magazine_hits),
                     static_cast<unsigned long long>(arena_stats.remote_pops),
                     static_cast<unsigned long long>(arena_stats.chain_steals),
                     static_cast<unsigned long long>(arena_stats.local_frees),
                     static_cast<unsigned long long>(arena_stats.remote_frees),
                     static_cast<unsigned long long>(arena_stats.fallback_allocs));
        std::fclose(f);
        std::printf("wrote %s\n", json_path.c_str());
    }
    return 0;
}
