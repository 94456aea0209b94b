#!/usr/bin/env bash
# Build-and-test driver for the verification matrix (see docs/ANALYSIS.md).
#
#   scripts/run_checks.sh                 # all stages
#   scripts/run_checks.sh default check   # just these stages
#
# Stages (each maps to a CMakePresets.json preset):
#   default  plain RelWithDebInfo build + ctest
#   check    PGRAPH_CHECK_ACCESS=ON build + ctest (access-discipline checker)
#   tsan     -fsanitize=thread build + ctest, then test_runtime's Runtime.*
#            tests repeated 100 times (the executor's caller/helper handoff,
#            and the per-thread cost tallies charged from the helpers)
#   asan     -fsanitize=address,undefined build + ctest and the same
#            repeated Runtime.* run; fails if either log shows ASan
#            ignoring __asan_handle_no_return (the mark of a fiber switch
#            the executor did not annotate)
#   lint     scripts/lint_spmd.py (SPMD-discipline static lint; self-test
#            first, then the tree against scripts/lint_spmd_allow.txt),
#            plus clang-tidy over src/tests/examples (skipped if not
#            installed)
#   ubsan    -fsanitize=undefined,float-cast-overflow (non-recoverable)
#            build (GCC's undefined group omits float-cast-overflow, the
#            check that catches a --faults value cast out of range);
#            collectives, fault (incl. the FaultConfigFuzz parser mutation
#            tests), stream, runtime (fiber executor, value collectives),
#            sched (FastDiv's 128-bit multiply and its wild-index fallback),
#            machine (tally fold), scrub (the replica module's mirror-flip
#            refusal at promotion, flip-detect-heal under sv and MST, and
#            the digest properties), harness (the BenchArgsFuzz flag
#            parser mutation tests and scaled()), graph_util (the Io
#            reader tests and the GraphIoFuzz DIMACS/binary mutations),
#            partition (the PartitionSpec parser and its PartitionSpecFuzz
#            mutations), trace (the JsonFuzz parser repros and seeded
#            mutations of exporter output) and generators (the RandomGraph,
#            Rmat and Hybrid suites: sizes from bench --n/--m flags, and
#            the impossible requests that must throw), plus the kernels on
#            core::RecoveryLoop whose caps it computes (cc_parallel: the
#            CcParallel suite with its INT_MAX cap case; bfs_pgas and
#            list_ranking, whose loops moved onto it) test binaries under it
#   perf     traced smoke bench + bench_diff.py vs the committed baseline
#            (scripts/baselines/BENCH_smoke.json; skipped without python3),
#            after a self-test that perturbed copies fail the gate
#   stream   dynamic-graph smoke: Stream* tests in the default and check
#            (PGRAPH_CHECK_ACCESS) presets, then the str01 bench at a fixed
#            small configuration gated against
#            scripts/baselines/BENCH_stream_smoke.json (the bench itself
#            self-checks bit-identity against a fresh cc_coalesced run)
#   serve    query-serving smoke: Serve* tests in the default and check
#            (PGRAPH_CHECK_ACCESS) presets, then the srv01 bench at a fixed
#            small configuration gated against
#            scripts/baselines/BENCH_serve_smoke.json
#   serve-chaos  resilient serving under faults: the ServeResilience /
#            ServeChaos suites (deadline shedding, retry budgets, breaker
#            lifecycle, brownout, permanent-loss recovery; each carries a
#            fault-plan matrix internally) across fault seeds 1..3 in the
#            default and check presets plus one asan run, then the srv02
#            availability sweep gated against
#            scripts/baselines/BENCH_srv02_degraded.json and a zero-fault
#            resilience-off srv01 run gated against the serve smoke
#            baseline
#   chaos    fault-injection suite (tests/test_fault.cpp) across fixed fault
#            seeds 1..3, in the default and check (PGRAPH_CHECK_ACCESS)
#            presets, plus the zero-fault bench-invariance gate: a bench run
#            with an attached all-zero fault plan must match the committed
#            baseline bit-for-bit (--threshold 0)
#   partition  partitioning-policy suite (tests/test_partition.cpp: the
#            owner/local/global bijection property, spec parsing/gating,
#            post-shrink owner stability, and the loss-chaos bit-identity
#            matrix under cyclic/degree) plus the BenchArgsPartition flag
#            tests, in the default and check presets and one asan pass,
#            then the part01 skew sweep at a fixed small configuration
#            gated against scripts/baselines/BENCH_part_smoke.json (the
#            bench itself self-checks label identity across schemes and
#            that degree-aware beats block on the skewed input)
#   scrub-chaos  silent-data-corruption defense (tests/test_scrub.cpp plus
#            the mem-flip config/flag tests) across fault seeds 1..3 in the
#            default and check presets plus one asan run, then the rob01
#            availability sweep gated against
#            scripts/baselines/BENCH_rob01_sdc.json and the zero-flip
#            invariance gate: a bench run with an attached-but-disabled
#            mem-flip plan must match the committed smoke baseline
#
# Every bench gate runs bench_diff.py --threshold 0: each field a
# committed baseline records except wall_ms must match bit-for-bit.
# Regenerate a baseline with the exact command its stage runs, and only
# for an intended model change.
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
STAGES=("$@")
if [ ${#STAGES[@]} -eq 0 ]; then
  STAGES=(default check tsan asan ubsan lint perf stream serve serve-chaos chaos scrub-chaos partition)
fi

run_preset() {
  local preset="$1"
  echo "==== [$preset] configure + build + test ===="
  cmake --preset "$preset"
  cmake --build --preset "$preset" -j "$JOBS"
  ctest --preset "$preset" -j "$JOBS"
  case "$preset" in
    tsan) repeat_runtime_tests tsan ;;
    asan)
      repeat_runtime_tests asan
      asan_log_gate build-asan/runtime_repeat.log
      ;;
  esac
}

# Sanitizer builds repeat the executor's tests: a rare race in the
# caller/helper handoff, an unannotated fiber migration, or a charge path
# that writes a shared cost model instead of its thread's tally (the
# Runtime.Tallies* tests engage the helpers) then has a chance to show.
repeat_runtime_tests() {
  local preset="$1"
  local log="build-$preset/runtime_repeat.log"
  echo "---- [$preset] Runtime.* tests x100 (log: $log) ----"
  if ! "build-$preset/tests/test_runtime" --gtest_filter='Runtime.*' \
      --gtest_repeat=100 > "$log" 2>&1; then
    tail -n 40 "$log" >&2
    echo "$preset: repeated Runtime.* tests failed (log: $log)" >&2
    exit 1
  fi
}

# ASan prints "ignoring requested __asan_handle_no_return" when a throw or
# longjmp runs on a stack it does not know -- what an unannotated fiber
# switch leaves behind, followed by false or missed reports.  Fail on it
# in the log of the last asan ctest run and in any extra log given.
asan_log_gate() {
  local log
  for log in build-asan/Testing/Temporary/LastTest.log "$@"; do
    if grep -q "__asan_handle_no_return" "$log"; then
      echo "asan: $log shows an unannotated stack switch:" >&2
      grep -m 5 "__asan_handle_no_return" "$log" >&2
      exit 1
    fi
  done
}

for stage in "${STAGES[@]}"; do
  case "$stage" in
    default|check|tsan|asan)
      run_preset "$stage"
      ;;
    lint)
      if command -v python3 > /dev/null 2>&1; then
        echo "==== [lint] SPMD-discipline lint (scripts/lint_spmd.py) ===="
        python3 scripts/lint_spmd.py --self-test
        python3 scripts/lint_spmd.py
      else
        echo "==== [lint] python3 not found on PATH; skipping SPMD lint ===="
      fi
      if command -v clang-tidy > /dev/null 2>&1; then
        echo "==== [lint] clang-tidy ===="
        cmake --preset default
        cmake --build --preset default --target lint
      else
        echo "==== [lint] clang-tidy not found on PATH; skipping ===="
      fi
      ;;
    ubsan)
      echo "==== [ubsan] undefined-behavior sanitizer, collectives/fault/stream/runtime/sched/machine/scrub/harness/graph_util/partition/trace/generators/cc_parallel/bfs_pgas/list_ranking ===="
      cmake --preset ubsan
      cmake --build --preset ubsan -j "$JOBS" \
        --target test_collectives --target test_fault --target test_stream \
        --target test_runtime --target test_sched --target test_machine \
        --target test_scrub --target test_harness --target test_graph_util \
        --target test_partition --target test_trace --target test_generators \
        --target test_cc_parallel --target test_bfs_pgas \
        --target test_list_ranking
      # The next two groups are test_sched's and test_machine's suites;
      # Scrub and BenchArgs cover test_scrub and test_harness's parser,
      # Io and GraphIoFuzz test_graph_util's graph readers, PartitionSpec
      # (and PartitionSpecFuzz) test_partition's spec parser, JsonFuzz
      # test_trace's JSON reader, RandomGraph, Rmat and Hybrid
      # test_generators' generators, CcParallel test_cc_parallel's loop
      # caps, and the last four groups test_bfs_pgas's and
      # test_list_ranking's kernels.
      ctest --preset ubsan \
        -R '^(Collectives|Fault|Stream|Runtime|Coll|(CountSort|Scheduled|Sweep/ScheduledGatherP|VBlocks|FastDiv)|(CostParams|MemoryModel|NetworkModel)|Scrub|BenchArgs|Io|GraphIoFuzz|PartitionSpec|JsonFuzz|RandomGraph|Rmat|Hybrid|CcParallel|Sweep/BfsP|BfsPgas|Sweep/ListRankP|ListRanking)' \
        --output-on-failure -j "$JOBS"
      ;;
    perf)
      if command -v python3 > /dev/null 2>&1; then
        echo "==== [perf] smoke bench + modeled-time regression gate ===="
        cmake --preset default
        cmake --build --preset default -j "$JOBS" \
          --target fig05_opt_breakdown_random
        out=build/BENCH_smoke.json
        # Same fixed configuration the committed baseline was generated
        # with (regenerate it with this exact command after intentional
        # model changes).
        build/bench/fig05_opt_breakdown_random \
          --n 2048 --m 8192 --nodes 4 --threads 4 --seed 1 \
          --json "$out" --trace build/smoke_trace.json > /dev/null
        # Gate sanity: identical files diff clean, a perturbed copy fails,
        # and the exact gate also fails on improvements and on counters
        # and breakdowns that leave modeled_ns alone.
        python3 scripts/bench_diff.py "$out" "$out" > /dev/null
        python3 scripts/bench_diff.py --threshold 0 "$out" "$out" > /dev/null
        python3 - "$out" <<'EOF'
import json, sys
perturb = {
    "slower": lambda r: r.update(modeled_ns=r["modeled_ns"] * 1.5),
    "faster": lambda r: r.update(modeled_ns=r["modeled_ns"] * 0.9),
    "messages": lambda r: r.update(messages=r["messages"] + 1000),
    "barriers": lambda r: r.update(barriers=r["barriers"] + 7),
    "comm": lambda r: r["breakdown_ns"].update(
        Comm=r["breakdown_ns"]["Comm"] + 12345),
}
for name, f in perturb.items():
    doc = json.load(open(sys.argv[1]))
    f(doc["rows"][0])
    json.dump(doc, open(f"build/BENCH_smoke_perturbed_{name}.json", "w"))
EOF
        if python3 scripts/bench_diff.py "$out" \
            build/BENCH_smoke_perturbed_slower.json > /dev/null 2>&1; then
          echo "perf: bench_diff.py failed to flag a 50% regression" >&2
          exit 1
        fi
        for name in slower faster messages barriers comm; do
          if python3 scripts/bench_diff.py --threshold 0 "$out" \
              "build/BENCH_smoke_perturbed_$name.json" > /dev/null 2>&1; then
            echo "perf: bench_diff.py --threshold 0 passed a perturbed" \
              "copy ($name)" >&2
            exit 1
          fi
        done
        # The actual gate: this build vs the committed baseline.
        python3 scripts/bench_diff.py --threshold 0 \
          scripts/baselines/BENCH_smoke.json "$out"
      else
        echo "==== [perf] python3 not found on PATH; skipping ===="
      fi
      ;;
    stream)
      echo "==== [stream] dynamic-graph suite + incremental-vs-rebuild gate ===="
      for preset in default check; do
        cmake --preset "$preset"
        cmake --build --preset "$preset" -j "$JOBS" --target test_stream
        ctest --preset "$preset" -R '^Stream' --output-on-failure -j "$JOBS"
      done
      if command -v python3 > /dev/null 2>&1; then
        cmake --build --preset default -j "$JOBS" \
          --target str01_incremental_vs_rebuild
        out=build/BENCH_stream_smoke.json
        # Same fixed configuration the committed baseline was generated
        # with (regenerate it with this exact command after intentional
        # model changes).  A nonzero exit here is also the bench's own
        # bit-identity / speedup self-check failing.
        build/bench/str01_incremental_vs_rebuild \
          --n 2000 --m 8000 --nodes 4 --threads 2 --seed 1 \
          --json "$out" --trace build/stream_trace.json > /dev/null
        python3 scripts/bench_diff.py --threshold 0 \
          scripts/baselines/BENCH_stream_smoke.json "$out"
      else
        echo "==== [stream] python3 not found; skipping bench gate ===="
      fi
      ;;
    serve)
      echo "==== [serve] query-serving suite + latency-SLO gate ===="
      for preset in default check; do
        cmake --preset "$preset"
        cmake --build --preset "$preset" -j "$JOBS" --target test_serve
        ctest --preset "$preset" -R '^Serve' --output-on-failure -j "$JOBS"
      done
      if command -v python3 > /dev/null 2>&1; then
        cmake --build --preset default -j "$JOBS" \
          --target srv01_query_serving
        out=build/BENCH_serve_smoke.json
        # Same fixed configuration the committed baseline was generated
        # with (regenerate it with this exact command after intentional
        # model changes).  A nonzero exit here is also the bench's own
        # self-check failing (conservation, batching leverage, cache
        # behaviour, serving-vs-direct bit-identity).
        build/bench/srv01_query_serving \
          --n 1500 --nodes 4 --threads 2 --seed 1 --sessions 4 \
          --scale 0.5 --json "$out" > /dev/null
        python3 scripts/bench_diff.py --threshold 0 \
          scripts/baselines/BENCH_serve_smoke.json "$out"
      else
        echo "==== [serve] python3 not found; skipping bench gate ===="
      fi
      ;;
    serve-chaos)
      echo "==== [serve-chaos] resilient serving under faults, seeds 1..3 ===="
      # The ServeResilience suite carries the fault-plan matrix internally
      # (drop / outage / straggle / permanent loss, armed mid-service);
      # PGRAPH_CHAOS_SEED rotates the fault draws the same way the chaos
      # stage does for the collectives.
      for preset in default check; do
        cmake --preset "$preset"
        cmake --build --preset "$preset" -j "$JOBS" --target test_serve
        for seed in 1 2 3; do
          echo "---- [serve-chaos] preset=$preset fault seed=$seed ----"
          PGRAPH_CHAOS_SEED=$seed ctest --preset "$preset" \
            -R '^ServeResilience|^ServeChaos' --output-on-failure -j "$JOBS"
        done
      done
      # One seed under asan: degraded serving re-enters the collectives
      # after loss-shrink restores, exactly where stale-count overruns hide.
      echo "---- [serve-chaos] resilience suite under asan, seed=2 ----"
      cmake --preset asan
      cmake --build --preset asan -j "$JOBS" --target test_serve
      PGRAPH_CHAOS_SEED=2 ctest --preset asan \
        -R '^ServeResilience' --output-on-failure -j "$JOBS"
      asan_log_gate
      if command -v python3 > /dev/null 2>&1; then
        cmake --build --preset default -j "$JOBS" \
          --target srv02_degraded_serving srv01_query_serving
        out=build/BENCH_srv02_degraded.json
        # Fixed configuration of the committed availability baseline; the
        # bench self-checks conservation, the availability floors, breaker
        # engagement and zero-fault raw/res identity, and bench_diff gates
        # every field exactly on top.
        build/bench/srv02_degraded_serving \
          --n 1200 --nodes 4 --threads 2 --seed 1 --scale 0.5 \
          --json "$out" > /dev/null
        python3 scripts/bench_diff.py --threshold 0 \
          scripts/baselines/BENCH_srv02_degraded.json "$out"
        echo "---- [serve-chaos] zero-fault plan leaves serving unchanged ----"
        # Resilience-off serving with an attached all-zero fault plan must
        # reproduce the committed smoke baseline bit-for-bit.
        out=build/BENCH_serve_smoke_zerofault.json
        build/bench/srv01_query_serving \
          --n 1500 --nodes 4 --threads 2 --seed 1 --sessions 4 \
          --scale 0.5 --faults drop=0 --fault-seed 3 --json "$out" > /dev/null
        python3 scripts/bench_diff.py --threshold 0 \
          scripts/baselines/BENCH_serve_smoke.json "$out"
      else
        echo "==== [serve-chaos] python3 not found; skipping bench gates ===="
      fi
      ;;
    chaos)
      echo "==== [chaos] fault-injection suite, seeds 1..3 ===="
      for preset in default check; do
        cmake --preset "$preset"
        cmake --build --preset "$preset" -j "$JOBS" --target test_fault
        for seed in 1 2 3; do
          echo "---- [chaos] preset=$preset fault seed=$seed ----"
          PGRAPH_CHAOS_SEED=$seed ctest --preset "$preset" \
            -R '^Fault' --output-on-failure -j "$JOBS"
        done
      done
      # Node-loss shrink matrix: the degraded-mode tests (buddy
      # replication, topology shrink, bit-identical recovery on the 4x2
      # cluster fixture) under each fault seed, called out separately so a
      # loss-specific regression is attributable at a glance.
      for seed in 1 2 3; do
        echo "---- [chaos] node-loss shrink, fault seed=$seed ----"
        PGRAPH_CHAOS_SEED=$seed ctest --preset default \
          -R 'Loss' --output-on-failure -j "$JOBS"
      done
      # One chaos seed under asan: the shrink path moves ownership and
      # replays mirrors, exactly where lifetime bugs would hide.
      echo "---- [chaos] fault suite under asan, seed=2 ----"
      cmake --preset asan
      cmake --build --preset asan -j "$JOBS" --target test_fault
      PGRAPH_CHAOS_SEED=2 ctest --preset asan \
        -R '^Fault' --output-on-failure -j "$JOBS"
      asan_log_gate
      if command -v python3 > /dev/null 2>&1; then
        echo "---- [chaos] zero-fault plan leaves bench times unchanged ----"
        cmake --build --preset default -j "$JOBS" \
          --target fig05_opt_breakdown_random
        out=build/BENCH_smoke_zerofault.json
        build/bench/fig05_opt_breakdown_random \
          --n 2048 --m 8192 --nodes 4 --threads 4 --seed 1 \
          --faults drop=0 --fault-seed 3 --json "$out" > /dev/null
        python3 scripts/bench_diff.py --threshold 0 \
          scripts/baselines/BENCH_smoke.json "$out"
      else
        echo "---- [chaos] python3 not found; skipping invariance gate ----"
      fi
      ;;
    partition)
      echo "==== [partition] partitioning-policy suite + skew gate ===="
      for preset in default check; do
        cmake --preset "$preset"
        cmake --build --preset "$preset" -j "$JOBS" \
          --target test_partition --target test_harness
        ctest --preset "$preset" -R '^Partition|^BenchArgsPartition' \
          --output-on-failure -j "$JOBS"
      done
      # One asan pass: the permuted-layout slot routing indexes the backing
      # buffer through slot_of on every getd/setd destination — exactly
      # where an off-by-one in a non-identity layout would hide.
      echo "---- [partition] partition suite under asan ----"
      cmake --preset asan
      cmake --build --preset asan -j "$JOBS" --target test_partition
      ctest --preset asan -R '^Partition' --output-on-failure -j "$JOBS"
      asan_log_gate
      if command -v python3 > /dev/null 2>&1; then
        cmake --build --preset default -j "$JOBS" \
          --target part01_skew_scaling
        out=build/BENCH_part_smoke.json
        # Fixed configuration of the committed skew baseline; the bench
        # self-checks bit-identical labels across the four schemes and
        # that degree-aware beats block on owner skew and modeled time,
        # and bench_diff gates every field exactly on top.
        build/bench/part01_skew_scaling \
          --nodes 4 --threads 2 --seed 1 --json "$out" > /dev/null
        python3 scripts/bench_diff.py --threshold 0 \
          scripts/baselines/BENCH_part_smoke.json "$out"
      else
        echo "---- [partition] python3 not found; skipping bench gate ----"
      fi
      ;;
    scrub-chaos)
      echo "==== [scrub-chaos] SDC defense suite, seeds 1..3 ===="
      # ScrubDigest/ScrubChaos/ScrubRuntime carry the bit-flip matrix
      # (detection, heal, rollback, bit-identical recovery, mirror-poison
      # promotion refusal); MemFlip picks up the fault-plan config tests
      # and BenchArgsRobust the --scrub-interval/--certify/--mem-flips
      # flag handling.
      for preset in default check; do
        cmake --preset "$preset"
        cmake --build --preset "$preset" -j "$JOBS" \
          --target test_scrub --target test_fault --target test_harness
        for seed in 1 2 3; do
          echo "---- [scrub-chaos] preset=$preset fault seed=$seed ----"
          PGRAPH_CHAOS_SEED=$seed ctest --preset "$preset" \
            -R '^Scrub|MemFlip|^BenchArgsRobust' --output-on-failure \
            -j "$JOBS"
        done
      done
      # One chaos seed under asan: heals and rollbacks rewrite partitions
      # in place and the OOB guards clamp corruption-derived indices,
      # exactly where lifetime/bounds bugs would hide.
      echo "---- [scrub-chaos] scrub suite under asan, seed=2 ----"
      cmake --preset asan
      cmake --build --preset asan -j "$JOBS" --target test_scrub
      PGRAPH_CHAOS_SEED=2 ctest --preset asan \
        -R '^Scrub' --output-on-failure -j "$JOBS"
      asan_log_gate
      if command -v python3 > /dev/null 2>&1; then
        cmake --build --preset default -j "$JOBS" \
          --target rob01_sdc_scrub --target fig05_opt_breakdown_random
        out=build/BENCH_rob01_sdc.json
        # Fixed configuration of the committed availability baseline; the
        # bench self-checks zero escapes / interval-1 availability, and
        # bench_diff gates every field exactly on top.
        build/bench/rob01_sdc_scrub --seed 21 --json "$out" > /dev/null
        python3 scripts/bench_diff.py --threshold 0 \
          scripts/baselines/BENCH_rob01_sdc.json "$out"
        echo "---- [scrub-chaos] zero-flip plan leaves bench times unchanged ----"
        # A disabled mem-flip plan (mem_flip_at=0) must reproduce the
        # committed smoke baseline bit-for-bit, like the chaos stage's
        # zero-fault gate.
        out=build/BENCH_smoke_zeroflip.json
        build/bench/fig05_opt_breakdown_random \
          --n 2048 --m 8192 --nodes 4 --threads 4 --seed 1 \
          --faults mem_flip_at=0 --fault-seed 3 --json "$out" > /dev/null
        python3 scripts/bench_diff.py --threshold 0 \
          scripts/baselines/BENCH_smoke.json "$out"
      else
        echo "---- [scrub-chaos] python3 not found; skipping bench gates ----"
      fi
      ;;
    *)
      echo "unknown stage: $stage (want: default check tsan asan ubsan lint perf stream serve serve-chaos chaos scrub-chaos partition)" >&2
      exit 2
      ;;
  esac
done

echo "==== all requested stages passed ===="
