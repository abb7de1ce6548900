// The memory-footprint property from the paper's introduction:
//
//   "[our methodology] allows the memory consumption of the implementation
//    to grow and shrink over time, without imposing any restrictions on the
//    underlying memory allocation mechanisms. In contrast, lock-free
//    implementations of dynamic data structures often either require
//    maintenance of a special freelist, whose storage cannot in general be
//    reused for other purposes (e.g. [19, 13]) ..."
//
//   $ ./examples/memory_shrink [--waves=4] [--wave_size=20000]
//
// Runs the same grow/shrink waves through an LFRC stack and a Valois-style
// freelist stack and prints both footprints after every phase: LFRC's
// returns to (near) zero each time; Valois's is a high-water mark forever.
#include <cstdio>

#include "alloc/stats.hpp"
#include "containers/stack_core.hpp"
#include "containers/valois_stack.hpp"
#include "lfrc/lfrc.hpp"
#include "smr/counted.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using dom = lfrc::domain;

int main(int argc, char** argv) {
    lfrc::util::cli_flags flags(argc, argv);
    const int waves = static_cast<int>(flags.get_u64("waves", 4));
    const int wave_size = static_cast<int>(flags.get_u64("wave_size", 20000));

    lfrc::containers::stack_core<std::int64_t, lfrc::smr::counted<dom>> lfrc_stack;
    lfrc::containers::valois_stack<std::int64_t> valois_stack;

    lfrc::flush_deferred_frees();
    const auto lfrc_baseline = lfrc::alloc::live_bytes();

    lfrc::util::table table(
        {"phase", "lfrc live bytes", "valois footprint bytes"});

    auto sample = [&](const std::string& phase) {
        lfrc::flush_deferred_frees();  // LFRC defers physical frees briefly
        // live_bytes() is a global counter; subtract the Valois pool's
        // chunks so the first column is the LFRC structure alone.
        const auto lfrc_bytes = lfrc::alloc::live_bytes() - lfrc_baseline -
                                static_cast<std::int64_t>(valois_stack.footprint_bytes());
        table.add_row({phase, std::to_string(lfrc_bytes),
                       std::to_string(valois_stack.footprint_bytes())});
    };

    sample("start");
    for (int w = 1; w <= waves; ++w) {
        const int n = wave_size * w;  // growing waves
        for (int i = 0; i < n; ++i) {
            lfrc_stack.push(i);
            valois_stack.push(i);
        }
        sample("after grow wave " + std::to_string(w) + " (+" + std::to_string(n) + ")");
        for (int i = 0; i < n; ++i) {
            lfrc_stack.pop();
            valois_stack.pop();
        }
        sample("after shrink wave " + std::to_string(w));
    }

    table.print();
    std::printf(
        "\nLFRC returns storage to the allocator after every shrink; the\n"
        "freelist scheme's footprint is a monotone high-water mark — the\n"
        "contrast the paper draws with Valois [19].\n");
    return 0;
}
