// E10 — descriptor reuse vs allocate+retire: what did "Reuse, don't
// Recycle" buy the software CASN?
//
// The production engine (dcas/mcas_engine.hpp) owns a fixed array of
// permanent per-slot descriptors named by sequence-tagged words; a casn
// allocates nothing and retires nothing. This bench freezes the engine it
// replaced — pool-allocated descriptors reclaimed through the global epoch
// domain, one mcas + N rdcss retire() calls per operation — verbatim in
// `e10_baseline` below, and races the two on the same workload: casn(2)
// and casn(3) over a shared cell array with uniformly random distinct
// targets.
//
// Expected shape: reuse wins on two axes. Per-op, it drops the pool
// round-trips, the epoch pin, and the retire bookkeeping from the hot
// path; system-wide, it stops feeding the reclaimer entirely (the
// `retired` column — millions/sec for the baseline, identically zero for
// reuse, confirmed against the epoch domain's pending count).
//
//   --duration=0.4 --max_threads=8 [--json=BENCH_e10.json]
#include <cstdio>
#include <string>
#include <vector>

#include "alloc/block_pool.hpp"
#include "dcas/cell.hpp"
#include "dcas/mcas_engine.hpp"
#include "reclaim/epoch.hpp"
#include "util/bench_support.hpp"
#include "util/cacheline.hpp"
#include "util/cli.hpp"
#include "util/random.hpp"
#include "util/table.hpp"

// ---------------------------------------------------------------------------
// The pre-reuse engine, frozen at the commit that replaced it. Identical
// protocol (Harris RDCSS + MCAS, address-ordered entries, helping), but
// descriptors are pool blocks retired through the epoch domain so helpers
// holding raw pointers never dereference reused storage. Two edits: a
// `retires` counter on the two retire() sites, so the bench can report
// the reclaimer traffic the production engine no longer generates; and
// the backing pools count their chunks in alloc::stats, as every
// block_pool does (nothing here reads those counters).
namespace e10_baseline {

using lfrc::dcas::cell;
using lfrc::dcas::is_clean_value;
using lfrc::dcas::is_mcas;
using lfrc::dcas::is_rdcss;
using lfrc::dcas::tag_mask;
using lfrc::dcas::tag_mcas;
using lfrc::dcas::tag_rdcss;

class engine {
  public:
    static const char* name() noexcept { return "alloc+retire"; }

    struct counters {
        std::atomic<std::uint64_t> retires{0};  // descriptor retire() calls
    };
    static counters& stats() noexcept {
        static counters c;
        return c;
    }

    static std::uint64_t read(cell& c) {
        lfrc::reclaim::epoch_domain::guard g(domain());
        return read_pinned(c);
    }

    static constexpr std::size_t max_casn = 4;

    struct casn_op {
        cell* target;
        std::uint64_t expected;
        std::uint64_t desired;
    };

    static bool casn(casn_op* ops, std::size_t n) {
        assert(n >= 1 && n <= max_casn);
        lfrc::reclaim::epoch_domain::guard g(domain());
        auto* d = ::new (mcas_pool::allocate()) mcas_descriptor;
        d->entry_count = static_cast<std::uint32_t>(n);
        for (std::size_t i = 0; i < n; ++i) {
            assert(is_clean_value(ops[i].expected) && is_clean_value(ops[i].desired));
            d->entries[i] = {ops[i].target, ops[i].expected, ops[i].desired};
        }
        for (std::uint32_t i = 1; i < d->entry_count; ++i) {
            auto key = d->entries[i];
            std::uint32_t j = i;
            for (; j > 0 && key.addr < d->entries[j - 1].addr; --j) {
                d->entries[j] = d->entries[j - 1];
            }
            d->entries[j] = key;
        }
        const bool ok = mcas_help(d, /*is_owner=*/true);
        stats().retires.fetch_add(1, std::memory_order_relaxed);
        domain().retire(d, [](void* p) { mcas_pool::deallocate(p); });
        return ok;
    }

  private:
    enum : std::uint64_t {
        status_undecided = 0,
        status_succeeded = 1,
        status_failed = 2,
    };

    struct mcas_descriptor {
        struct entry {
            cell* addr;
            std::uint64_t old_val;
            std::uint64_t new_val;
        };
        std::atomic<std::uint64_t> status{status_undecided};
        std::uint32_t entry_count = 0;
        entry entries[4] = {};
    };

    struct rdcss_descriptor {
        mcas_descriptor* md;  // control: proceed only while md->status is UNDECIDED
        cell* a2;
        std::uint64_t o2;  // expected data value; n2 is the tagged md
    };

    static_assert(sizeof(mcas_descriptor) <= 112, "mcas_pool block size too small");
    static_assert(sizeof(rdcss_descriptor) <= 24, "rdcss_pool block size too small");

    static lfrc::reclaim::epoch_domain& domain() {
        return lfrc::reclaim::epoch_domain::global();
    }

    // Untracked type-stable pools with a thread-local front cache; backing
    // pools intentionally leaked (epoch deleters can run at static
    // destruction).
    template <std::size_t Size>
    class cached_pool {
      public:
        static void* allocate() {
            auto& cache = local_cache();
            if (!cache.items.empty()) {
                void* p = cache.items.back();
                cache.items.pop_back();
                return p;
            }
            return backing().allocate();
        }
        static void deallocate(void* p) noexcept {
            auto& cache = local_cache();
            if (cache.items.size() < 256) {
                cache.items.push_back(p);
            } else {
                backing().deallocate(p);
            }
        }

      private:
        struct cache_t {
            std::vector<void*> items;
            ~cache_t() {
                for (void* p : items) backing().deallocate(p);
            }
        };
        static cache_t& local_cache() {
            thread_local cache_t cache;
            return cache;
        }
        static lfrc::alloc::block_pool<Size>& backing() {
            static auto* pool = new lfrc::alloc::block_pool<Size>;
            return *pool;
        }
    };

    using mcas_pool = cached_pool<112>;
    using rdcss_pool = cached_pool<24>;

    static std::uint64_t tag(const rdcss_descriptor* d) noexcept {
        return reinterpret_cast<std::uint64_t>(d) | tag_rdcss;
    }
    static std::uint64_t tag(const mcas_descriptor* d) noexcept {
        return reinterpret_cast<std::uint64_t>(d) | tag_mcas;
    }
    static rdcss_descriptor* untag_rdcss(std::uint64_t v) noexcept {
        return reinterpret_cast<rdcss_descriptor*>(v & ~tag_mask);
    }
    static mcas_descriptor* untag_mcas(std::uint64_t v) noexcept {
        return reinterpret_cast<mcas_descriptor*>(v & ~tag_mask);
    }

    static void resolve(std::uint64_t observed) {
        if (is_rdcss(observed)) {
            rdcss_complete(untag_rdcss(observed));
        } else {
            mcas_help(untag_mcas(observed), /*is_owner=*/false);
        }
    }

    static std::uint64_t read_pinned(cell& c) {
        for (;;) {
            const std::uint64_t v = c.raw().load(std::memory_order_seq_cst);
            if (!is_rdcss(v) && !is_mcas(v)) return v;
            resolve(v);
        }
    }

    static void rdcss_complete(rdcss_descriptor* rd) {
        const std::uint64_t s = rd->md->status.load(std::memory_order_seq_cst);
        const std::uint64_t desired = (s == status_undecided) ? tag(rd->md) : rd->o2;
        std::uint64_t expected = tag(rd);
        rd->a2->raw().compare_exchange_strong(expected, desired,
                                              std::memory_order_seq_cst);
    }

    static std::uint64_t rdcss_install(rdcss_descriptor* rd) {
        for (;;) {
            std::uint64_t expected = rd->o2;
            if (rd->a2->raw().compare_exchange_strong(expected, tag(rd),
                                                      std::memory_order_seq_cst)) {
                rdcss_complete(rd);
                return rd->o2;
            }
            if (is_rdcss(expected)) {
                rdcss_complete(untag_rdcss(expected));
                continue;
            }
            return expected;
        }
    }

    static bool mcas_help(mcas_descriptor* d, bool is_owner) {
        if (d->status.load(std::memory_order_seq_cst) == status_undecided) {
            std::uint64_t decided = status_succeeded;
            for (std::uint32_t i = 0; i < d->entry_count; ++i) {
                auto& e = d->entries[i];
                bool entry_done = false;
                while (!entry_done) {
                    auto* rd = ::new (rdcss_pool::allocate())
                        rdcss_descriptor{d, e.addr, e.old_val};
                    const std::uint64_t v = rdcss_install(rd);
                    stats().retires.fetch_add(1, std::memory_order_relaxed);
                    domain().retire(rd, [](void* p) { rdcss_pool::deallocate(p); });
                    if (v == e.old_val || v == tag(d)) {
                        entry_done = true;
                    } else if (is_mcas(v)) {
                        mcas_help(untag_mcas(v), /*is_owner=*/false);
                    } else {
                        decided = status_failed;
                        entry_done = true;
                    }
                }
                if (decided == status_failed) break;
                if (d->status.load(std::memory_order_seq_cst) != status_undecided) break;
            }
            std::uint64_t expected = status_undecided;
            d->status.compare_exchange_strong(expected, decided,
                                              std::memory_order_seq_cst);
        }
        const bool succeeded =
            d->status.load(std::memory_order_seq_cst) == status_succeeded;
        for (std::uint32_t i = 0; i < d->entry_count; ++i) {
            auto& e = d->entries[i];
            std::uint64_t expected = tag(d);
            e.addr->raw().compare_exchange_strong(
                expected, succeeded ? e.new_val : e.old_val, std::memory_order_seq_cst);
        }
        (void)is_owner;
        return succeeded;
    }
};

}  // namespace e10_baseline

// ---------------------------------------------------------------------------

using namespace lfrc;

namespace {

// The production engine under its bench-facing alias.
struct reuse_engine {
    static const char* name() noexcept { return "reuse"; }
    using casn_op = dcas::mcas_engine::casn_op;
    static std::uint64_t read(dcas::cell& c) { return dcas::mcas_engine::read(c); }
    static bool casn(casn_op* ops, std::size_t n) {
        return dcas::mcas_engine::casn(ops, n);
    }
};

constexpr std::size_t k_cells = 64;

struct run_row {
    int threads;
    std::string engine;
    double mops2;           // casn(2) attempts per second
    double mops3;           // casn(3) attempts per second
    std::uint64_t retired;  // descriptor retire() calls during both runs
    std::uint64_t pending_delta;  // epoch-domain backlog growth (reuse: must be 0)
};

template <class Engine>
double run_width(std::size_t width, int threads, double duration) {
    // Shared cell array, uniformly random distinct targets: essentially
    // uncontended at 1 thread, moderately contended (with helping) at 8.
    std::vector<util::padded<dcas::cell>> cells(k_cells);
    const auto result = util::run_for(threads, duration, [&](int t) {
        auto& rng = util::thread_rng();
        (void)t;
        std::size_t idx[4];
        for (std::size_t i = 0; i < width; ++i) {
            for (;;) {
                idx[i] = static_cast<std::size_t>(rng() % k_cells);
                bool dup = false;
                for (std::size_t j = 0; j < i; ++j) dup |= (idx[j] == idx[i]);
                if (!dup) break;
            }
        }
        typename Engine::casn_op ops[4];
        for (std::size_t i = 0; i < width; ++i) {
            const auto v = Engine::read(*cells[idx[i]]);
            ops[i] = {&*cells[idx[i]], v, dcas::encode_count(dcas::decode_count(v) + 1)};
        }
        Engine::casn(ops, width);  // one attempt per iteration; may fail under contention
    });
    return result.mops_per_sec();
}

template <class Engine>
std::uint64_t retire_count();
template <>
std::uint64_t retire_count<e10_baseline::engine>() {
    return e10_baseline::engine::stats().retires.load(std::memory_order_relaxed);
}
template <>
std::uint64_t retire_count<reuse_engine>() {
    return 0;  // structurally no retire() call sites; cross-checked below
}

template <class Engine>
run_row run_engine(int threads, double duration) {
    const std::uint64_t retires_before = retire_count<Engine>();
    const std::uint64_t pending_before = reclaim::epoch_domain::global().pending();
    run_row row;
    row.threads = threads;
    row.engine = Engine::name();
    row.mops2 = run_width<Engine>(2, threads, duration);
    row.mops3 = run_width<Engine>(3, threads, duration);
    row.retired = retire_count<Engine>() - retires_before;
    const std::uint64_t pending_after = reclaim::epoch_domain::global().pending();
    row.pending_delta =
        pending_after > pending_before ? pending_after - pending_before : 0;
    return row;
}

}  // namespace

int main(int argc, char** argv) {
    util::cli_flags flags(argc, argv);
    const double duration = flags.get_double("duration", 0.4);
    const int max_threads = static_cast<int>(flags.get_u64("max_threads", 8));

    std::printf("E10: software CASN, permanent sequence-tagged descriptors (reuse)\n"
                "vs pool-allocate + epoch-retire (the engine it replaced);\n"
                "%zu shared cells, random distinct targets, duration/cell=%.2fs\n\n",
                k_cells, duration);

    std::vector<run_row> rows;
    util::table table(
        {"threads", "engine", "casn(2) Mops/s", "casn(3) Mops/s", "retired", "pending+"});
    for (int threads = 1; threads <= max_threads; threads *= 2) {
        for (int which = 0; which < 2; ++which) {
            const run_row row = which == 0
                                    ? run_engine<e10_baseline::engine>(threads, duration)
                                    : run_engine<reuse_engine>(threads, duration);
            table.add_row({std::to_string(row.threads), row.engine,
                           util::table::fmt(row.mops2), util::table::fmt(row.mops3),
                           std::to_string(row.retired),
                           std::to_string(row.pending_delta)});
            rows.push_back(row);
        }
    }
    table.print();

    std::printf("\nshape check: reuse should lead at every thread count (no pool\n"
                "round-trips, no epoch pin, no retire bookkeeping per op) and its\n"
                "`retired` and `pending+` columns must both be zero — the reclaimer\n"
                "is out of the CASN loop entirely. The baseline's `retired` column\n"
                "is the per-op descriptor traffic the rework deleted (~1 mcas +\n"
                ">=N rdcss per casn(N)).\n");

    bool ok = true;
    for (const run_row& r : rows) {
        if (r.engine == std::string("reuse") && (r.retired != 0 || r.pending_delta != 0)) {
            std::fprintf(stderr, "E10: reuse engine leaked reclaimer traffic "
                                 "(retired=%llu pending+=%llu) at %d threads\n",
                         static_cast<unsigned long long>(r.retired),
                         static_cast<unsigned long long>(r.pending_delta), r.threads);
            ok = false;
        }
    }

    const std::string json_path = flags.get_string("json", "");
    if (!json_path.empty()) {
        std::FILE* f = std::fopen(json_path.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr, "E10: cannot open %s for writing\n", json_path.c_str());
            return 1;
        }
        std::fprintf(f, "{\n  \"bench\": \"e10_casn\",\n  \"cells\": %zu,\n"
                        "  \"duration_per_cell_sec\": %.3f,\n  \"rows\": [\n",
                     k_cells, duration);
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const run_row& r = rows[i];
            std::fprintf(f,
                         "    {\"threads\": %d, \"engine\": \"%s\", \"casn2_mops\": %.3f, "
                         "\"casn3_mops\": %.3f, \"retired\": %llu, \"pending_delta\": %llu}%s\n",
                         r.threads, r.engine.c_str(), r.mops2, r.mops3,
                         static_cast<unsigned long long>(r.retired),
                         static_cast<unsigned long long>(r.pending_delta),
                         i + 1 < rows.size() ? "," : "");
        }
        std::fprintf(f, "  ]\n}\n");
        std::fclose(f);
        std::printf("wrote %s\n", json_path.c_str());
    }
    return ok ? 0 : 1;
}
