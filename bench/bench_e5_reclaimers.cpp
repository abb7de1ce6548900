// Experiment E5 — LFRC vs other reclamation schemes on classic lock-free
// structures (DESIGN.md §6).
//
// Paper context (§6 related work): LFRC competes with epoch-style deferred
// reclamation and hazard-pointer-style protection. Same algorithms (Treiber
// stack, Michael-Scott queue), five memory regimes:
//   lfrc/mcas, lfrc/locked : counted pointers, GC-independent
//   ebr                    : epoch-based retire-on-unlink
//   hp                     : hazard pointers
//   leaky                  : free nothing (upper bound)
//
// Expected shape: leaky > ebr > hp > lfrc/locked > lfrc/mcas on throughput —
// LFRC pays two shared RMWs per pointer *read*, which is the documented cost
// of counting (and what E6 isolates); its compensation is immediate,
// GC-independent reclamation and freedom from type-stable pools.
//
//   --duration=0.4 --max_threads=4
#include <cstdio>
#include <memory>
#include <string>

#include "containers/gc_containers.hpp"
#include "containers/queue_core.hpp"
#include "containers/stack_core.hpp"
#include "gc/heap.hpp"
#include "lfrc/lfrc.hpp"
#include "smr/counted.hpp"
#include "smr/manual.hpp"
#include "util/bench_support.hpp"
#include "util/cli.hpp"
#include "util/random.hpp"
#include "util/table.hpp"

using namespace lfrc;

namespace {

template <typename P>
using stack_t = containers::stack_core<std::int64_t, P>;
template <typename P>
using queue_t = containers::queue_core<std::int64_t, P>;

template <typename Stack>
double stack_throughput(int threads, double duration) {
    Stack st;
    for (int i = 0; i < 128; ++i) st.push(i);
    const auto result = util::run_for(threads, duration, [&](int) {
        if (util::thread_rng().below(2) == 0) {
            st.push(1);
        } else {
            st.pop();
        }
    });
    while (st.pop()) {}
    return result.mops_per_sec();
}

double gc_stack_throughput(int threads, double duration) {
    gc::heap heap{1 << 20};
    containers::gc_stack<std::int64_t> st{heap};
    {
        gc::heap::attach_scope attach(heap);
        for (int i = 0; i < 128; ++i) st.push(i);
    }
    const auto result = util::run_for(threads, duration, [&](int) {
        thread_local gc::heap* attached_heap = nullptr;
        thread_local std::unique_ptr<gc::heap::attach_scope> attach;
        if (attached_heap != &heap) {
            attach = std::make_unique<gc::heap::attach_scope>(heap);
            attached_heap = &heap;
        }
        if (util::thread_rng().below(2) == 0) {
            st.push(1);
        } else {
            st.pop();
        }
    });
    {
        gc::heap::attach_scope attach(heap);
        while (st.pop()) {}
        heap.collect_now();
    }
    return result.mops_per_sec();
}

double gc_queue_throughput(int threads, double duration) {
    gc::heap heap{1 << 20};
    containers::gc_queue<std::int64_t> q{heap};
    {
        gc::heap::attach_scope attach(heap);
        for (int i = 0; i < 128; ++i) q.enqueue(i);
    }
    const auto result = util::run_for(threads, duration, [&](int) {
        thread_local gc::heap* attached_heap = nullptr;
        thread_local std::unique_ptr<gc::heap::attach_scope> attach;
        if (attached_heap != &heap) {
            attach = std::make_unique<gc::heap::attach_scope>(heap);
            attached_heap = &heap;
        }
        if (util::thread_rng().below(2) == 0) {
            q.enqueue(1);
        } else {
            q.dequeue();
        }
    });
    {
        gc::heap::attach_scope attach(heap);
        while (q.dequeue()) {}
        heap.collect_now();
    }
    return result.mops_per_sec();
}

template <typename Queue>
double queue_throughput(int threads, double duration) {
    Queue q;
    for (int i = 0; i < 128; ++i) q.enqueue(i);
    const auto result = util::run_for(threads, duration, [&](int) {
        if (util::thread_rng().below(2) == 0) {
            q.enqueue(1);
        } else {
            q.dequeue();
        }
    });
    while (q.dequeue()) {}
    return result.mops_per_sec();
}

}  // namespace

int main(int argc, char** argv) {
    util::cli_flags flags(argc, argv);
    const double duration = flags.get_double("duration", 0.4);
    const int max_threads = static_cast<int>(flags.get_u64("max_threads", 4));

    std::printf("E5: stack/queue throughput by reclamation scheme (Mops/s), "
                "50/50 mix, duration/cell=%.2fs\n\n",
                duration);

    util::table table({"structure", "threads", "lfrc/mcas", "lfrc/locked", "ebr", "hp",
                       "leaky", "gc-stw"});
    for (int threads = 1; threads <= max_threads; threads *= 2) {
        table.add_row(
            {"treiber-stack", std::to_string(threads),
             util::table::fmt(stack_throughput<stack_t<smr::counted<domain>>>(threads, duration)),
             util::table::fmt(
                 stack_throughput<stack_t<smr::counted<locked_domain>>>(threads, duration)),
             util::table::fmt(stack_throughput<stack_t<smr::ebr<>>>(threads, duration)),
             util::table::fmt(stack_throughput<stack_t<smr::hp<>>>(threads, duration)),
             util::table::fmt(stack_throughput<stack_t<smr::leaky<>>>(threads, duration)),
             util::table::fmt(gc_stack_throughput(threads, duration))});
        flush_deferred_frees();
    }
    for (int threads = 1; threads <= max_threads; threads *= 2) {
        table.add_row(
            {"ms-queue", std::to_string(threads),
             util::table::fmt(queue_throughput<queue_t<smr::counted<domain>>>(threads, duration)),
             util::table::fmt(
                 queue_throughput<queue_t<smr::counted<locked_domain>>>(threads, duration)),
             util::table::fmt(queue_throughput<queue_t<smr::ebr<>>>(threads, duration)),
             util::table::fmt(queue_throughput<queue_t<smr::hp<>>>(threads, duration)),
             util::table::fmt(queue_throughput<queue_t<smr::leaky<>>>(threads, duration)),
             util::table::fmt(gc_queue_throughput(threads, duration))});
        flush_deferred_frees();
    }
    table.print();

    reclaim::hazard_domain::global().drain_all();
    const auto counters = domain::counters().snapshot();
    std::printf("\nsanity: lfrc objects leaked = %lld\n",
                static_cast<long long>(counters.objects_created) -
                    static_cast<long long>(counters.objects_destroyed));
    return 0;
}
