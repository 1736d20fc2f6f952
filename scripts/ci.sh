#!/usr/bin/env bash
# CI entry point: build every preset (release, asan-ubsan, tsan) and run the
# test suite under each, then run the perf benches and gate regressions.
# Usage: scripts/ci.sh [stage...] (default: all presets + smoke + daemon +
# predict + perfbench + bench + coverage).
# Stages are preset names plus:
#   smoke    — scenario-matrix smoke: every registered machine model runs
#              every calibrated scenario pack through the co-analysis at a
#              short horizon (perf_scenarios --smoke; whole matrix is well
#              under a second, tier-1 budget).
#   daemon   — fleet-daemon smoke: start coral_daemon, feed two tenants
#              (bgp + bgq) concurrently over the wire protocol, scrape
#              /metrics mid-run (live, non-final per-tenant counters), and
#              assert end-state parity against the offline batch engine.
#   predict  — prediction-eval gate: mine correlation rules on the seeded
#              injector scenario, score the online predictor against ground
#              truth, and fail unless precision/recall/lead-time/saved
#              node-hours clear the floors (example_predict_eval), plus a
#              logtool mine -> predict round trip on generated logs.
#   perfbench — compiles the end-to-end benchmark (perfbench/, its own CMake
#              package over ../src) into build/perfbench, so a library API
#              change that breaks it fails here and not only when the
#              benchmark runs.
#   bench    — runs the perf_* suites on the release build and merges the
#              results into BENCH_coanalysis.json at the repo root, failing
#              on a >10% cpu_time regression versus the committed numbers.
#   coverage — rebuilds with gcc --coverage, runs the full suite, and gates
#              line coverage on src/coral at 80% plus branch coverage on the
#              filter/matching kernels at 92% via scripts/coverage.py
#              (plain gcov + python3; no gcovr dependency).
set -euo pipefail

cd "$(dirname "$0")/.."

RUN_BENCH=0
RUN_COVERAGE=0
RUN_SMOKE=0
RUN_DAEMON=0
RUN_PREDICT=0
RUN_PERFBENCH=0
PRESETS=()
for stage in "$@"; do
  if [ "$stage" = bench ]; then
    RUN_BENCH=1
  elif [ "$stage" = coverage ]; then
    RUN_COVERAGE=1
  elif [ "$stage" = smoke ]; then
    RUN_SMOKE=1
  elif [ "$stage" = daemon ]; then
    RUN_DAEMON=1
  elif [ "$stage" = predict ]; then
    RUN_PREDICT=1
  elif [ "$stage" = perfbench ]; then
    RUN_PERFBENCH=1
  else
    PRESETS+=("$stage")
  fi
done
if [ $# -eq 0 ]; then
  PRESETS=(release asan-ubsan tsan)
  RUN_BENCH=1
  RUN_COVERAGE=1
  RUN_SMOKE=1
  RUN_DAEMON=1
  RUN_PREDICT=1
  RUN_PERFBENCH=1
fi

JOBS=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 2)

for preset in "${PRESETS[@]}"; do
  echo "==== [$preset] configure ===="
  cmake --preset "$preset"
  echo "==== [$preset] build ===="
  cmake --build --preset "$preset" -j "$JOBS"
  echo "==== [$preset] test ===="
  ctest --preset "$preset" -j "$JOBS"
done

# Corpus fuzz-smoke: the lenient-ingest corruption corpus (tests/corrupt.hpp
# mutators over CSV and framed-binary logs) must always run under
# ASan/UBSan, even when the caller asked for a subset of presets — the whole
# point of the harness is catching out-of-bounds reads and UB on damaged
# input, which the release build cannot see. test_fleet replays the same
# corpus over the wire-protocol socket path (FuzzSmokeWire), so it rides in
# the same stage.
case " ${PRESETS[*]} " in
  *" asan-ubsan "*) ;;  # full asan-ubsan suite already ran above
  *)
    echo "==== [asan-ubsan] fuzz-smoke corpus ===="
    cmake --preset asan-ubsan
    cmake --build --preset asan-ubsan -j "$JOBS" \
      --target test_ingest test_fleet test_predict
    ctest --preset asan-ubsan -L fuzz -j "$JOBS"
    ;;
esac

# The concurrent multi-catalog tests, the daemon start/stop cycles and the
# pooled binary reads must always run under ThreadSanitizer, even when the
# caller asked for a subset of presets: they are the only coverage of two
# Contexts racing through the full pipeline, of stop() racing the daemon's
# accept loops, and of pool workers first-touching disjoint slices of one
# shared event array.
case " ${PRESETS[*]} " in
  *" tsan "*) ;;  # full tsan suite already ran above
  *)
    echo "==== [tsan] focused Context + daemon lifecycle + pooled read race check ===="
    cmake --preset tsan
    cmake --build --preset tsan -j "$JOBS" --target test_context test_fleet test_columnar
    ctest --preset tsan -R 'Context|DaemonLifecycle|ParallelBinaryRead' -j "$JOBS"
    ;;
esac

if [ "$RUN_SMOKE" -eq 1 ]; then
  echo "==== [smoke] scenario matrix (machines x packs) ===="
  cmake --preset release
  cmake --build --preset release -j "$JOBS" --target perf_scenarios coral_logtool
  build/release/bench/perf_scenarios --smoke

  echo "==== [smoke] logtool v2 -> v3 convert + verify round trip ===="
  LOGTOOL_OUT=$(mktemp -d)
  trap 'rm -rf "$LOGTOOL_OUT"' EXIT
  LOGTOOL=build/release/tools/coral_logtool
  "$LOGTOOL" gen "$LOGTOOL_OUT/ras.v2" "$LOGTOOL_OUT/jobs.v2" --v2
  "$LOGTOOL" convert "$LOGTOOL_OUT/ras.v2" "$LOGTOOL_OUT/ras.v3" --v3
  "$LOGTOOL" convert "$LOGTOOL_OUT/jobs.v2" "$LOGTOOL_OUT/jobs.v3" --v3
  "$LOGTOOL" verify "$LOGTOOL_OUT/ras.v2" "$LOGTOOL_OUT/ras.v3"
  "$LOGTOOL" verify "$LOGTOOL_OUT/jobs.v2" "$LOGTOOL_OUT/jobs.v3"
  "$LOGTOOL" info "$LOGTOOL_OUT/ras.v3"
  rm -rf "$LOGTOOL_OUT"
  trap - EXIT
fi

if [ "$RUN_DAEMON" -eq 1 ]; then
  echo "==== [daemon] fleet smoke: two tenants + live /metrics scrape ===="
  cmake --preset release
  cmake --build --preset release -j "$JOBS" --target coral_daemon example_fleet_feeder
  DAEMON_OUT=$(mktemp -d)
  DAEMON_PID=
  FEEDER_PID=
  cleanup_daemon() {
    [ -n "$FEEDER_PID" ] && kill "$FEEDER_PID" 2>/dev/null || true
    [ -n "$DAEMON_PID" ] && kill "$DAEMON_PID" 2>/dev/null || true
    [ -n "$FEEDER_PID" ] && wait "$FEEDER_PID" 2>/dev/null || true
    [ -n "$DAEMON_PID" ] && wait "$DAEMON_PID" 2>/dev/null || true
    rm -rf "$DAEMON_OUT"
  }
  trap cleanup_daemon EXIT
  build/release/tools/coral_daemon > "$DAEMON_OUT/daemon.log" &
  DAEMON_PID=$!
  for _ in $(seq 50); do
    grep -q 'coral_daemon listening' "$DAEMON_OUT/daemon.log" 2>/dev/null && break
    sleep 0.1
  done
  WIRE_PORT=$(sed -n 's/.*wire=[^:]*:\([0-9]*\).*/\1/p' "$DAEMON_OUT/daemon.log")
  METRICS_PORT=$(sed -n 's/.*metrics=[^:]*:\([0-9]*\).*/\1/p' "$DAEMON_OUT/daemon.log")
  [ -n "$WIRE_PORT" ] && [ -n "$METRICS_PORT" ] || {
    echo "daemon never printed its ports:"; cat "$DAEMON_OUT/daemon.log"; exit 1;
  }
  # The feeder holds its sessions open (decoded, not finalized) for 3 s after
  # flush, which gives the scrape below a deterministic mid-run window. It
  # exits non-zero itself if the daemon fingerprints diverge from the offline
  # engine, so `wait` is the parity gate.
  FLEET_FEEDER_HOLD_MS=3000 build/release/examples/example_fleet_feeder \
    "$WIRE_PORT" > "$DAEMON_OUT/feeder.log" &
  FEEDER_PID=$!
  python3 - "$METRICS_PORT" <<'PY'
import sys, time, urllib.request

# Mid-run liveness: poll /metrics until some tenant shows decoded records
# while still not finalized. Both families carry per-tenant labels.
port = sys.argv[1]
for _ in range(100):
    try:
        text = urllib.request.urlopen(
            f"http://127.0.0.1:{port}/metrics", timeout=2).read().decode()
    except OSError:
        time.sleep(0.1)
        continue
    lines = text.splitlines()
    live = [l for l in lines
            if l.startswith('coral_session_ras_records{tenant="')
            and not l.endswith(" 0")]
    finalized = [l for l in lines
                 if l.startswith('coral_session_finalized{tenant="')
                 and l.endswith(" 1")]
    if live and not finalized:
        print("mid-run /metrics scrape is live and labeled:")
        for l in live:
            print("  " + l)
        sys.exit(0)
    time.sleep(0.1)
sys.exit("never observed live, non-finalized per-tenant counters on /metrics")
PY
  wait "$FEEDER_PID"
  FEEDER_PID=
  cat "$DAEMON_OUT/feeder.log"
  ! grep -q MISMATCH "$DAEMON_OUT/feeder.log"
  kill "$DAEMON_PID"
  wait "$DAEMON_PID" 2>/dev/null || true
  DAEMON_PID=
  trap - EXIT
  rm -rf "$DAEMON_OUT"
fi

if [ "$RUN_PREDICT" -eq 1 ]; then
  echo "==== [predict] build (release) ===="
  cmake --preset release
  cmake --build --preset release -j "$JOBS" \
    --target example_predict_eval coral_logtool
  echo "==== [predict] evaluation floors on the seeded scenario ===="
  # Mines rules on the calibrated injector scenario, replays them online,
  # scores against ground truth, and re-runs with fault-aware placement.
  # Exits non-zero unless precision >= 0.7, recall >= 0.5, lead time > 0
  # and saved node-hours > 0.
  build/release/examples/example_predict_eval 42 21
  echo "==== [predict] logtool mine -> predict round trip ===="
  PREDICT_OUT=$(mktemp -d)
  trap 'rm -rf "$PREDICT_OUT"' EXIT
  LOGTOOL=build/release/tools/coral_logtool
  "$LOGTOOL" gen "$PREDICT_OUT/ras.v2" "$PREDICT_OUT/jobs.v2" --v2
  "$LOGTOOL" mine "$PREDICT_OUT/ras.v2" "$PREDICT_OUT/jobs.v2" \
    "$PREDICT_OUT/rules.crul"
  "$LOGTOOL" predict "$PREDICT_OUT/rules.crul" "$PREDICT_OUT/ras.v2"
  rm -rf "$PREDICT_OUT"
  trap - EXIT
fi

if [ "$RUN_PERFBENCH" -eq 1 ]; then
  echo "==== [perfbench] build ===="
  cmake -S perfbench -B build/perfbench
  cmake --build build/perfbench -j "$JOBS"
fi

if [ "$RUN_BENCH" -eq 1 ]; then
  echo "==== [bench] build (release) ===="
  cmake --preset release
  cmake --build --preset release -j "$JOBS" \
    --target perf_filtering perf_matching perf_pipeline perf_predict perf_streaming
  BENCH_DIR=build/release/bench
  BENCH_OUT=$(mktemp -d)
  trap 'rm -rf "$BENCH_OUT"' EXIT
  echo "==== [bench] run ===="
  # The installed google-benchmark wants a plain double for min_time (no
  # "0.1s" duration suffix).
  for b in perf_filtering perf_matching perf_pipeline perf_predict; do
    "$BENCH_DIR/$b" --benchmark_min_time=0.1 --benchmark_format=json \
      > "$BENCH_OUT/$b.json"
  done
  # Run from the bench dir: perf_streaming drops its BENCH_streaming.json
  # stage-timing artifact in cwd, which should stay out of the repo root.
  # Best-of-7 reps (seed at its default): the per-mode wall numbers are
  # only a few ms, and on shared CI VMs best-of-3 leaves enough scheduler
  # noise to trip the regression gate spuriously.
  (cd "$BENCH_DIR" && ./perf_streaming 42 7) > "$BENCH_OUT/perf_streaming.json"
  echo "==== [bench] merge + regression gate ===="
  python3 scripts/merge_bench.py --out BENCH_coanalysis.json \
    --gbench "$BENCH_OUT"/perf_filtering.json "$BENCH_OUT"/perf_matching.json \
             "$BENCH_OUT"/perf_pipeline.json "$BENCH_OUT"/perf_predict.json \
    --streaming "$BENCH_OUT"/perf_streaming.json \
    --obs "$BENCH_DIR"/BENCH_streaming.json \
    --max-regression 0.10
fi

if [ "$RUN_COVERAGE" -eq 1 ]; then
  echo "==== [coverage] build (gcc --coverage) ===="
  cmake -B build/coverage -S . \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS=--coverage \
    -DCMAKE_EXE_LINKER_FLAGS=--coverage
  cmake --build build/coverage -j "$JOBS"
  echo "==== [coverage] test ===="
  # Stale counters from a previous run would double-count; start clean.
  find build/coverage -name '*.gcda' -delete
  (cd build/coverage && ctest -j "$JOBS" --output-on-failure)
  echo "==== [coverage] aggregate + gate (>=80% line on src/coral, >=92% branch on filter/matching kernels) ===="
  python3 scripts/coverage.py --build-dir build/coverage \
    --source-prefix src/coral --min-percent 80 \
    --branch-prefix src/coral/filter --branch-prefix src/coral/core/matching \
    --min-branch-percent 92
fi

echo "==== all stages green ===="
