#!/usr/bin/env bash
# Reproduce everything: build, tests, every experiment, every example.
# Outputs land in test_output.txt and bench_output.txt at the repo root
# (the same artifacts EXPERIMENTS.md cites).
set -euo pipefail
cd "$(dirname "$0")/.."

# --ci: run the fail-fast tier-1 matrix (release/tsan/asan/sim) instead of
# the full experiment sweep. See scripts/ci.sh.
if [[ "${1:-}" == "--ci" ]]; then
  shift
  exec ./scripts/ci.sh "$@"
fi

cmake -B build -S .
cmake --build build -j

ctest --test-dir build 2>&1 | tee test_output.txt

# Model-checking config: deterministic schedule exploration (tests/sim).
# Separate tree — LFRC_SIM instruments the hot paths, production stays pure.
cmake -B build-sim -G Ninja -DLFRC_SIM=ON
cmake --build build-sim
ctest --test-dir build-sim -L sim --output-on-failure 2>&1 | tee sim_output.txt

# Optional sanitizer matrix (slow): LFRC_RUN_SANITIZERS=1 ./scripts/run_all.sh
if [[ "${LFRC_RUN_SANITIZERS:-0}" == "1" ]]; then
  for san in thread address; do
    cmake -B "build-$san" -G Ninja -DLFRC_SANITIZE=$san
    cmake --build "build-$san"
    ctest --test-dir "build-$san" --output-on-failure 2>&1 | tee "test_output_$san.txt"
  done
fi

{
  for b in build/bench/*; do
    [[ -f "$b" && -x "$b" ]] || continue   # skip CMakeFiles/ etc.
    echo "=== $(basename "$b") ==="
    if [[ "$(basename "$b")" == "bench_e2_lfrc_ops" ]]; then
      "$b" --benchmark_min_time=0.2
    elif [[ "$(basename "$b")" == "bench_e6_refcount_contention" ]]; then
      # Also emit the machine-readable perf baseline (BENCH_e6.json) so
      # future PRs have a trajectory for the borrow-vs-counted-load gap.
      "$b" --max_threads=8 --json=BENCH_e6.json
    elif [[ "$(basename "$b")" == "bench_e10_casn" ]]; then
      # CASN descriptor-reuse baseline (BENCH_e10.json): reuse vs the
      # frozen allocate+retire engine, with the retired-descriptor columns
      # EXPERIMENTS.md E10 tracks (reuse must stay at zero).
      "$b" --max_threads=8 --json=BENCH_e10.json
    elif [[ "$(basename "$b")" == "bench_e9_store_throughput" ]]; then
      # End-to-end store throughput baseline (BENCH_e9.json): the
      # reclaimer-policy comparison EXPERIMENTS.md E9 tracks across PRs —
      # now seven columns, with smr::deferred expected within ~20% of ebr.
      "$b" --threads=1,4,8 --json=BENCH_e9.json
    else
      "$b"
    fi
    echo
  done
} 2>&1 | tee bench_output.txt

# E11: open-loop tail latency through the net front-end (BENCH_e11.json).
# Not a bench/ binary — it needs a live server; e11_sweep.sh owns the
# start/drive/drain choreography per cell (policies x offered rates,
# latency-vs-load curves) and asserts residual 0 on every way out.
echo "=== e11 net tail latency sweep ===" | tee -a bench_output.txt
./scripts/e11_sweep.sh build 2.0 BENCH_e11.json 2>&1 | tee -a bench_output.txt

echo
echo "=== examples (smoke) ==="
./build/examples/quickstart
./build/examples/conversion_tutorial
./build/examples/memory_shrink --waves=2 --wave_size=10000
./build/examples/pipeline --items=20000
./build/examples/membership --sessions=5000
./build/examples/work_stealing --tasks=500
./build/examples/gc_vs_lfrc --threads=2 --ops=10000
echo
echo "=== soak (10 s) ==="
./build/tests/soak --seconds=10 --threads=4
echo "ALL DONE"
