// The §3 methodology, end to end, on one algorithm: runs the SAME Treiber
// stack in its GC-dependent form (toy collector) and its LFRC-transformed
// form, side by side, with the transformation steps narrated.
//
//   $ ./examples/conversion_tutorial
//
// This is the paper's workflow in miniature: design against a GC, then
// apply steps 1-6 to become GC-independent.
#include <cstdio>

#include "containers/gc_containers.hpp"
#include "containers/stack_core.hpp"
#include "gc/heap.hpp"
#include "lfrc/lfrc.hpp"
#include "smr/counted.hpp"

using dom = lfrc::domain;

namespace {

constexpr int items = 10000;

}  // namespace

int main() {
    std::printf("== GC-dependent -> GC-independent, per paper section 3 ==\n\n");

    std::printf(
        "The GC-dependent stack (containers::gc_stack) uses plain pointers;\n"
        "popped nodes just become unreachable and the collector finds them.\n\n");
    {
        lfrc::gc::heap heap{64 * 1024};
        lfrc::containers::gc_stack<int> st{heap};
        lfrc::gc::heap::attach_scope attach(heap);
        long long sum = 0;
        for (int i = 1; i <= items; ++i) st.push(i);
        while (auto v = st.pop()) sum += *v;
        heap.collect_now();
        const auto stats = heap.stats();
        std::printf("  gc-stack checksum  : %lld (expected %lld)\n", sum,
                    static_cast<long long>(items) * (items + 1) / 2);
        std::printf("  collections        : %llu, max pause %.1f us\n",
                    static_cast<unsigned long long>(stats.collections),
                    static_cast<double>(stats.max_pause_ns) / 1000.0);
        std::printf("  live after collect : %llu objects\n\n",
                    static_cast<unsigned long long>(heap.live_objects()));
    }

    std::printf(
        "Applying the six steps (see src/containers/stack_core.hpp, src/smr/counted.hpp):\n"
        "  1. rc field          -> node derives dom::object\n"
        "  2. LFRCDestroy       -> node::lfrc_visit_children reports `next`\n"
        "  3. cycle-free check  -> popped nodes form chains; nothing to do\n"
        "  4. typed operations  -> basic_domain<Engine> templates\n"
        "  5. replace ptr ops   -> loads/stores/CAS become LFRC ops (Table 1)\n"
        "  6. local pointers    -> local_ptr<> RAII\n\n");
    {
        lfrc::containers::stack_core<int, lfrc::smr::counted<dom>> st;
        long long sum = 0;
        for (int i = 1; i <= items; ++i) st.push(i);
        while (auto v = st.pop()) sum += *v;
        lfrc::flush_deferred_frees();
        const auto counters = dom::counters().snapshot();
        std::printf("  lfrc-stack checksum: %lld (expected %lld)\n", sum,
                    static_cast<long long>(items) * (items + 1) / 2);
        std::printf("  collections        : none — counts reclaim as pops retire nodes\n");
        std::printf("  objects leaked     : %lld\n\n",
                    static_cast<long long>(counters.objects_created) -
                        static_cast<long long>(counters.objects_destroyed));
    }

    std::printf(
        "Same algorithm, same results; the LFRC version needs no collector,\n"
        "no stop-the-world pauses, and no type-stable freelist.\n");
    return 0;
}
