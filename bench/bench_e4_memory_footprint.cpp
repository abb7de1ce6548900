// Experiment E4 — memory footprint over grow/shrink phases, including the
// Valois-freelist ablation (DESIGN.md §6).
//
// Paper claim (§1): LFRC "allows the memory consumption of the
// implementation to grow and shrink over time", unlike freelist-based
// reference counting (Valois [19]) where storage "cannot in general be
// reused for other purposes", and unlike a leaky GC-dependent deployment.
//
// Expected shape, per phase, for the same push/pop waves on a stack:
//   lfrc    : returns to ~0 after every shrink
//   valois  : monotone high-water mark (never shrinks)
//   leaky   : monotone and growing with TOTAL pushes, not the high-water
//             mark (every popped node is lost)
//
//   --waves=4 --wave_size=25000
#include <cstdio>
#include <string>

#include "alloc/stats.hpp"
#include "containers/stack_core.hpp"
#include "containers/valois_stack.hpp"
#include "lfrc/lfrc.hpp"
#include "smr/counted.hpp"
#include "smr/manual.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace lfrc;

namespace {

// Track each structure's bytes via the global counter deltas around its ops.
class byte_meter {
  public:
    byte_meter() : base_(alloc::live_bytes()) {}
    template <typename F>
    void run(F&& f) {
        const auto before = alloc::live_bytes();
        f();
        bytes_ += alloc::live_bytes() - before;
        (void)base_;
    }
    std::int64_t bytes() const { return bytes_; }

  private:
    std::int64_t base_;
    std::int64_t bytes_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
    util::cli_flags flags(argc, argv);
    const int waves = static_cast<int>(flags.get_u64("waves", 4));
    const int wave_size = static_cast<int>(flags.get_u64("wave_size", 25000));

    std::printf("E4: live bytes per structure after each phase "
                "(%d grow/shrink waves of %d nodes)\n\n",
                waves, wave_size);

    containers::stack_core<std::int64_t, smr::counted<domain>> lfrc_stack;
    containers::valois_stack<std::int64_t> valois;
    containers::stack_core<std::int64_t, smr::leaky<>> leaky;

    byte_meter lfrc_bytes, valois_bytes, leaky_bytes;

    util::table table({"phase", "lfrc", "valois-freelist", "leaky"});
    auto sample = [&](const std::string& phase) {
        table.add_row({phase, std::to_string(lfrc_bytes.bytes()),
                       std::to_string(valois_bytes.bytes()),
                       std::to_string(leaky_bytes.bytes())});
    };

    sample("start");
    for (int w = 1; w <= waves; ++w) {
        lfrc_bytes.run([&] {
            for (int i = 0; i < wave_size; ++i) lfrc_stack.push(i);
        });
        valois_bytes.run([&] {
            for (int i = 0; i < wave_size; ++i) valois.push(i);
        });
        leaky_bytes.run([&] {
            for (int i = 0; i < wave_size; ++i) leaky.push(i);
        });
        sample("grow " + std::to_string(w));

        lfrc_bytes.run([&] {
            for (int i = 0; i < wave_size; ++i) lfrc_stack.pop();
            flush_deferred_frees();
        });
        valois_bytes.run([&] {
            for (int i = 0; i < wave_size; ++i) valois.pop();
        });
        leaky_bytes.run([&] {
            for (int i = 0; i < wave_size; ++i) leaky.pop();
        });
        sample("shrink " + std::to_string(w));
    }
    table.print();

    std::printf("\nshape check: lfrc returns to ~0 each shrink; valois plateaus at the\n"
                "high-water mark; leaky grows with total pushes (%d x %d nodes).\n",
                waves, wave_size);
    return 0;
}
