#!/usr/bin/env bash
# The deterministic gates of one source tree.
#
#   scripts/run_gates.sh <source-dir> <build-dir> <out-dir>
#
# Builds <source-dir> in Release (the gate targets in <build-dir>/build, the
# benchmark's aurora_bench from perfsuite/ in <build-dir>/bench_build, the
# build output in <build-dir>/build.log), then runs every gate and writes its
# artifacts to <out-dir>, which must be new or empty:
#
#   - simcheck --runs 25 --digest --shrink 0: simcheck_scalar.txt,
#     simcheck_batch8.txt (--batch 8) and simcheck_traced.txt (tracing and
#     the flight recorder on; the obs_flight_*.json dumps go to flight/);
#   - simcheck_threaded{1,2,4}_batch{1,8}.txt: the --threaded digests, scalar
#     and --batch 8, without their scheduling-dependent `workers=` lines;
#   - the same-seed (seed 7) obs_*.json dumps of bench_fault_recovery,
#     bench_transport (TupleTrain|CreditFlow), bench_load_balancing,
#     bench_storage, bench_hot_path and bench_scheduler (train sizes,
#     train depths and tuple-at-a-time), one directory each;
#   - hot_path_batched_rows.txt: the rows of bench_hot_path's batched sweep
#     (BENCH_hotpath_batched.json) without their wall-clock fields;
#   - medusa_economy_counters.txt: the bench_medusa_economy counters;
#   - hot_path_goldens.sha256 and hot_path_golden_test.txt: the goldens file
#     of hot_path_golden_test and the test's verdict;
#   - fed3_traced.txt: a traced fed3 run of the repository benchmark
#     (aurora_bench --trace 1 --seconds 5 --seed 1): its simulated-event,
#     step and frame counts, simulated latencies and queue delays, error
#     rate and digests.
#
# The same source gives the same artifacts, byte for byte: CI diffs two runs
# on one build, and scripts/gate_diff.sh diffs a base commit against the
# working tree. Exit status: 0 when every gate ran clean, 1 when some gate
# failed (its artifact records the exit status), 2 on a usage or build
# error.
set -euo pipefail

if [[ $# -ne 3 ]]; then
  echo "usage: $0 <source-dir> <build-dir> <out-dir>" >&2
  exit 2
fi
if [[ -d $3 && -n $(ls -A "$3") ]]; then
  echo "run_gates: $3 is not empty" >&2
  exit 2
fi
src=$(cd "$1" && pwd)
mkdir -p "$2" "$3"
work=$(cd "$2" && pwd)
out=$(cd "$3" && pwd)
b=$work/build
bb=$work/bench_build
log=$work/build.log
golden=tests/check/hot_path_golden_test.cc

echo "run_gates: building $src (log: $log)" >&2
if ! { cmake -S "$src" -B "$b" -DCMAKE_BUILD_TYPE=Release &&
       cmake --build "$b" -j "$(nproc)" --target simcheck \
         bench_fault_recovery bench_transport bench_load_balancing \
         bench_storage bench_hot_path bench_scheduler bench_medusa_economy \
         check_hot_path_golden_test &&
       cmake -S "$src/perfsuite" -B "$bb" -DCMAKE_BUILD_TYPE=Release &&
       cmake --build "$bb" -j "$(nproc)" --target aurora_bench
     } >"$log" 2>&1; then
  tail -n 30 "$log" >&2
  echo "run_gates: build of $src failed" >&2
  exit 2
fi

failed=0
# fail <artifact>: records a failed gate's exit status ($?) in its artifact.
fail() {
  echo "exit=$?" >>"$1"
  failed=1
}

# bench <name> <binary> <args...>: runs a bench in <out-dir>/<name>.
bench() {
  local name=$1 bin=$2
  shift 2
  mkdir -p "$out/$name"
  (cd "$out/$name" && "$bin" "$@" >/dev/null 2>&1) ||
    fail "$out/$name.failed"
}

echo "run_gates: running the gates of $src" >&2
mkdir -p "$out/flight"
sc=$b/src/check/simcheck
"$sc" --runs 25 --digest --shrink 0 >"$out/simcheck_scalar.txt" ||
  fail "$out/simcheck_scalar.txt"
"$sc" --runs 25 --digest --shrink 0 --batch 8 >"$out/simcheck_batch8.txt" ||
  fail "$out/simcheck_batch8.txt"
(cd "$out/flight" && AURORA_TRACE=1 AURORA_TRACE_CAPACITY=4096 \
   AURORA_FLIGHT_RECORDER=1 "$sc" --runs 25 --digest --shrink 0) \
  >"$out/simcheck_traced.txt" || fail "$out/simcheck_traced.txt"
for w in 1 2 4; do
  for batch in 1 8; do
    f=$out/simcheck_threaded${w}_batch${batch}.txt
    "$sc" --threaded "$w" --runs 25 --digest --shrink 0 --batch "$batch" \
      >"$f.raw" || fail "$f.raw"
    grep -v '^workers=' "$f.raw" >"$f" || true
    rm "$f.raw"
  done
done

bench fault_recovery "$b/bench/bench_fault_recovery" --seed 7 --iters 1 \
  --benchmark_min_time=0.001
bench transport "$b/bench/bench_transport" --seed 7 --iters 1 \
  --benchmark_filter='TupleTrain|CreditFlow' --benchmark_min_time=0.001
bench load_balancing "$b/bench/bench_load_balancing" --seed 7 --iters 1 \
  --benchmark_min_time=0.001
bench storage "$b/bench/bench_storage" --seed 7 --iters 1
bench hot_path "$b/bench/bench_hot_path" --seed 7 --iters small \
  --benchmark_min_time=0.001
bench scheduler "$b/bench/bench_scheduler" --seed 7 --iters 1 \
  --benchmark_min_time=0.001
# Counters only: the timing fields of the JSON report vary run to run.
"$b/bench/bench_medusa_economy" --seed 7 --iters 1 --benchmark_format=json |
  python3 -c '
import json, sys
wall = {"real_time", "cpu_time", "time_unit", "run_name", "run_type",
        "repetitions", "repetition_index", "threads", "family_index",
        "per_family_instance_index"}
for row in json.load(sys.stdin)["benchmarks"]:
    print(row["name"], " ".join("%s=%r" % (k, v) for k, v in
                                sorted(row.items()) if k not in wall))
' >"$out/medusa_economy_counters.txt" ||
  fail "$out/medusa_economy_counters.txt"
# The batched sweep runs a fixed iteration count, so its config axes and
# tuple counts repeat; its timings do not.
python3 -c '
import json, sys
wall = {"tuples_per_sec", "ns_per_tuple"}
for row in json.load(open(sys.argv[1]))["rows"]:
    print(" ".join("%s=%r" % (k, v) for k, v in row.items() if k not in wall))
' "$out/hot_path/BENCH_hotpath_batched.json" \
  >"$out/hot_path_batched_rows.txt" || fail "$out/hot_path_batched_rows.txt"
# Only the deterministic dumps stay in the bench and flight directories.
find "$out" -mindepth 2 -type f ! -name 'obs_*.json' -delete

sha256sum <"$src/$golden" >"$out/hot_path_goldens.sha256"
if "$b/tests/check_hot_path_golden_test" >/dev/null 2>&1; then
  echo pass >"$out/hot_path_golden_test.txt"
else
  echo fail >"$out/hot_path_golden_test.txt"
  failed=1
fi

# The simulated-time and count metrics of the trace run (not wall time).
fed3='sim\.(events_per_tuple|peak_pending|latency_p999_ms)'
fed3+='|net\.(frames_per_ktuple|overhead_bytes_per_tuple|credit_stalls)'
fed3+='|net\.queue_delay_p(50|99)_us|distributed\.steps_per_ktuple'
fed3+='|error_rate|digest\.(input|output)'
(cd "$work" && "$bb/aurora_bench" --workload fed3 --trace 1 --seconds 5 \
   --seed 1 2>/dev/null) >"$out/fed3.raw" || fail "$out/fed3.raw"
grep -E "^(fed3 ($fed3) |exit=)" "$out/fed3.raw" >"$out/fed3_traced.txt" ||
  true
rm "$out/fed3.raw"

if ((failed)); then
  echo "run_gates: some gate failed; its artifact records the exit status" >&2
fi
exit "$failed"
