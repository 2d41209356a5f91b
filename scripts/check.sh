#!/usr/bin/env bash
# Repository check gate: the tier-1 build + full test suite, the substrate
# micro-benchmarks (failing unless the event kernel's zero-allocation
# probes, telemetry-handle overhead bench and sim::Core op chains
# included, all read 0, and every paper system's policy passes allocate
# under 0.05 times per pass), a smoke
# run of the telemetry demo + its three exporters, then sanitizer passes:
# ThreadSanitizer over the multi-threaded code (the parallel sweep runner,
# its per-job log buffers, and the ordered parallel export writer with the
# exporters and runs it serves) and AddressSanitizer over the event-kernel and
# telemetry tests (the slab queue and InlineEvent do placement-new lifetime
# management by hand; the registry hands out long-lived cell pointers) and
# the runtime's (an app's storage is freed when it leaves the live set).
# The e2ebench digest gate holds every benchmark workload's outputs to the
# committed reference digests at both reference seeds.
# Run from the repository root:
#
#   scripts/check.sh              # everything
#   SKIP_TSAN=1 scripts/check.sh  # skip the TSan pass
#   SKIP_ASAN=1 scripts/check.sh  # skip the ASan pass
#   SKIP_COV=1 scripts/check.sh   # skip the coverage gate
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"

echo "== tier-1: build + ctest =="
cmake -B build -S .
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "== substrate micro-bench gate (zero-alloc probes) =="
# Every event-kernel bench carries a steady-state allocation probe; the
# kernel's contract is that each one reads exactly 0 (BM_CoreOpChain
# covers sim::Core ops started on an idle core and queued behind a busy
# one; its /parked arm submits EventFn callbacks, which park in the
# in-flight slot instead of firing in their completion event). BM_PolicyPassAllocs counts allocations inside each paper system's
# scheduling passes: every policy keeps per-app state from admission and
# reuses its buffers (VersaSlot-BL builds Big units into a kept buffer and
# checks bundling once per spec), so each must stay below 0.05 per pass.
cmake --build build -j "$JOBS" --target micro_substrate
./build/bench/micro_substrate \
  --benchmark_filter='BM_EventQueueScheduleAndPop|BM_SimulatorEventRate|BM_SimulatorInterleavedChains|BM_SimulatorHoldModel|BM_CoreOpChain|BM_MetricsOverhead|BM_PhaseAccountingOverhead|BM_PolicyPassAllocs' \
  --benchmark_min_time=0.01 --benchmark_format=json \
  >build/substrate_smoke.json
python3 - build/substrate_smoke.json <<'PY'
import json
import sys

benches = json.load(open(sys.argv[1]))["benchmarks"]
kernel = [b for b in benches if "allocs_per_event" in b]
policy = [b for b in benches if "allocs_per_pass" in b]
gated = {"Baseline", "FCFS", "RR", "Nimblock", "VersaSlot-OL", "VersaSlot-BL"}
bad = [f"{b['name']}: allocs_per_event {b['allocs_per_event']}"
       for b in kernel if b["allocs_per_event"] != 0]
bad += [f"{b['name']} ({b['label']}): allocs_per_pass {b['allocs_per_pass']}"
        for b in policy
        if b["label"] in gated and b["allocs_per_pass"] >= 0.05]
if not kernel or not gated <= {b["label"] for b in policy} or bad:
    sys.exit("allocation probes failed: " +
             (", ".join(bad) or "missing benches"))
for b in kernel:
    print(f"{b['name']}: allocs_per_event 0")
for b in policy:
    print(f"{b['name']} ({b['label']}): "
          f"allocs_per_pass {b['allocs_per_pass']:.4f}")
PY

echo "== telemetry demo smoke (dashboard + exporters) =="
./build/examples/telemetry_demo --metrics-out build/telemetry_demo_smoke \
  >/dev/null
test -s build/telemetry_demo_smoke.prom
test -s build/telemetry_demo_smoke.jsonl
test -s build/telemetry_demo_smoke.report.json

echo "== fault-injection smoke (recovery metrics in exports) =="
cmake --build build -j "$JOBS" --target ext_fault_resilience
# Smokes run from build/ so the CSV each bench writes into its working
# directory cannot clobber a committed CSV at the repo root.
(cd build && ./bench/ext_fault_resilience --apps 12 --seqs 1 \
  --metrics-out fault_smoke >/dev/null)
grep -q 'vs_recovery_mttr_ms' build/fault_smoke.prom
grep -q 'vs_faults_injected_total' build/fault_smoke.prom
grep -q 'vs_board_available' build/fault_smoke.prom

echo "== checkpoint smoke (snapshot metrics in exports) =="
(cd build && ./bench/ext_fault_resilience --apps 12 --seqs 1 \
  --recovery checkpoint --metrics-out ckpt_smoke >/dev/null)
grep -q 'vs_ckpt_snapshots_total' build/ckpt_smoke.prom
grep -q 'vs_ckpt_bytes_total' build/ckpt_smoke.prom
grep -q 'vs_recovery_checkpoint_restored_apps_total' build/ckpt_smoke.prom

echo "== delta checkpoint + pre-copy smoke (dirty/round metrics in exports) =="
# The telemetry replay runs the full PR 7 configuration (dirty-delta
# checkpoints + iterative pre-copy), so its export must carry the
# delta-only and migration instruments.
grep -q 'vs_ckpt_deltas_total' build/ckpt_smoke.prom
grep -q 'vs_ckpt_dirty_bytes_total' build/ckpt_smoke.prom
grep -q 'reason="clean"' build/ckpt_smoke.prom
grep -q 'reason="empty"' build/ckpt_smoke.prom
grep -q 'vs_migration_rounds_total' build/ckpt_smoke.prom
grep -q 'vs_migration_downtime_ms' build/ckpt_smoke.prom

echo "== causal trace + journal smoke (flow events, phases, journal) =="
# A faulted traced replay must emit cross-board flow events (crash ->
# evacuation -> readmission arrows), the phase histograms, a structured
# journal with the crash recorded, and the metrics series next to it (the
# journal gets its own file so it cannot overwrite the series). The
# series' first line carries every column, board availability included.
(cd build && ./bench/ext_fault_resilience --apps 12 --seqs 1 \
  --metrics-out trace_smoke --trace-out trace_smoke.json \
  --journal-out trace_smoke.journal.jsonl >/dev/null)
grep -q '"ph":"s"' build/trace_smoke.json
grep -q '"ph":"f"' build/trace_smoke.json
grep -q 'vs_app_phase_ms' build/trace_smoke.prom
grep -q '"phases": \[' build/trace_smoke.report.json
grep -q '"event":"crash"' build/trace_smoke.journal.jsonl
grep -q '"event":"readmit"' build/trace_smoke.journal.jsonl
IFS= read -r series_head < build/trace_smoke.jsonl
if [[ "$series_head" != *vs_board_available* ]]; then
  echo "trace_smoke.jsonl: first series line lacks vs_board_available" >&2
  exit 1
fi

echo "== capture flag smoke (every capturing CLI writes what it is asked) =="
# Each of these runs once exited 0 without writing its trace or journal.
# The journals must carry the decisions the runs are about: the rack
# replay's crashes and the serving plane's admissions.
(cd build && ./bench/ext_fault_resilience --racks 2 --apps 12 --seqs 1 \
  --trace-out rack_capture.json --journal-out rack_capture.journal.jsonl \
  >/dev/null)
(cd build && ./bench/ext_multitenant --boards 8 --rate 1.0 --horizon 10 \
  --jobs 1 --trace-out mt_capture.json --journal-out mt_capture.journal.jsonl \
  >/dev/null)
(cd build && ./examples/telemetry_demo --trace-out demo_capture.json >/dev/null)
for f in rack_capture.json rack_capture.journal.jsonl mt_capture.json \
         mt_capture.journal.jsonl demo_capture.json; do
  test -s "build/$f"
done
grep -q '"event":"crash"' build/rack_capture.journal.jsonl
grep -q '"event":"admit"' build/mt_capture.journal.jsonl

echo "== example trace smoke (hub writer, full-precision timestamps) =="
# The examples capture through metrics::Capture, like the benches.
# Timestamps must print as shortest round-trip decimals: ostream's default
# six significant digits turned every span past 10 s into e-notation.
(cd build && ./examples/simulate --system versaslot-bl --congestion stress \
  --apps 20 --trace-out simulate_smoke.json >/dev/null)
grep -q '"process_name"' build/simulate_smoke.json
if grep -qE '"ts":[-0-9.]*[eE]' build/simulate_smoke.json; then
  echo "simulate trace has e-notation timestamps" >&2
  exit 1
fi
(cd build && ./examples/offline_flow --trace-out offline_flow_trace.json \
  >/dev/null)
test -s build/offline_flow_trace.json
# pipeline_timeline is the only caller of the ASCII Gantt: one chart per
# scheduler, each headed by its time axis.
gantts="$(cd build && ./examples/pipeline_timeline | grep -c '^time: ')"
if [[ "$gantts" != 3 ]]; then
  echo "pipeline_timeline printed $gantts Gantt charts, want 3" >&2
  exit 1
fi

echo "== write-failure smoke (an unwritable output file exits 1) =="
# /dev/full opens but rejects every write, and /dev/full/x cannot be
# opened at all. Either way the run must exit 1 with the path on stderr:
# not 0 with no file, and not an abort on an uncaught exception.
expect_write_failure() {
  local path=$1 rc=0 err
  shift
  err="$(cd build && "$@" 2>&1 >/dev/null)" || rc=$?
  if (( rc != 1 )) || [[ "$err" != *"$path"* ]]; then
    echo "$*: exit $rc (want 1), stderr: $err" >&2
    exit 1
  fi
}
expect_write_failure /dev/full ./examples/simulate --system versaslot-bl \
  --congestion stress --apps 20 --trace-out /dev/full
expect_write_failure /dev/full ./examples/simulate --apps 20 --csv /dev/full
expect_write_failure /dev/full ./examples/simulate --apps 20 \
  --save-workload /dev/full
expect_write_failure /dev/full/x ./bench/ext_multitenant --boards 8 \
  --rate 1.0 --horizon 10 --jobs 1 --metrics-out /dev/full/x
expect_write_failure /dev/full ./bench/fig7_utilization --jobs 1 \
  --journal-out /dev/full

echo "== bad-invocation smoke (bad input exits 2 before any work) =="
# Every bench and example but micro_substrate (google-benchmark's own
# flags) reads argv through util::run_cli. An unknown flag, a positional
# argument or a bad value must exit 2 with the flag or argument in the
# first line of output, the error (the usage line after it names every
# flag), and --help must exit 0 with the usage line; neither may write a
# file. Each case runs in its own empty directory. None starts a sweep,
# so none starts more than a few threads.
expect_exit() {
  local want=$1 needle=$2 bin=$PWD/build/$3 rc=0 out dir
  shift 3
  dir="$(mktemp -d)"
  out="$(cd "$dir" && "$bin" "$@" 2>&1)" || rc=$?
  if (( rc != want )) || [[ "${out%%$'\n'*}" != *"$needle"* ]] ||
     [[ -n "$(ls -A "$dir")" ]]; then
    echo "$bin $*: exit $rc (want $want), output: $out," \
      "files: $(ls -A "$dir")" >&2
    exit 1
  fi
  rm -rf "$dir"
}
for bin in bench/ablation_bundling bench/ablation_scheduling \
           bench/ablation_thresholds bench/ext_cluster_scale \
           bench/ext_dml_comparison bench/ext_fabric_dse \
           bench/ext_fault_resilience bench/ext_multitenant bench/ext_quality \
           bench/fig5_response_time bench/fig6_tail_latency \
           bench/fig7_utilization bench/fig8_switching \
           examples/cluster_migration examples/offline_flow \
           examples/pipeline_timeline examples/quickstart \
           examples/scheduler_comparison examples/simulate \
           examples/streaming_feed examples/telemetry_demo; do
  expect_exit 2 --no-such-flag "$bin" --no-such-flag
  expect_exit 0 usage: "$bin" --help
done
while read -r needle bin args; do
  # shellcheck disable=SC2086  # split the argument list on purpose
  expect_exit 2 "$needle" "$bin" $args
done <<'CASES'
--boards bench/ext_multitenant --boards 0
--boards bench/ext_multitenant --boards eight
--bords bench/ext_multitenant --bords 8
--rate bench/ext_multitenant --rate -1
--horizon bench/ext_multitenant --horizon -5
--apps bench/ext_fault_resilience --apps 0
--apps bench/ext_fault_resilience --apps -4
--racks bench/ext_fault_resilience --racks -1
--precopy-rounds bench/ext_fault_resilience --precopy-rounds -3
--ckpt-interval bench/ext_fault_resilience --ckpt-interval 0
--throttle bench/ext_fault_resilience --throttle bogus
--precopy-rounds bench/fig8_switching --precopy-rounds -3
--apps bench/fig5_response_time --apps 0
--jobs bench/fig5_response_time --jobs 0
--apps bench/ext_cluster_scale --apps 0
--apps examples/simulate --apps 0
--apps examples/simulate --apps 2x0
--sytem examples/simulate --sytem nimblock
--system examples/simulate --system=foo
--trace examples/simulate --trace x.json
--system examples/simulate --cluster --system nimblock
--csv examples/simulate --cluster --csv x.csv
--quality examples/simulate --cluster --quality
--boards examples/simulate --boards 2
--apps examples/simulate --workload w.csv --apps 40
--seed examples/simulate --workload w.csv --seed 3
--congestion examples/simulate --workload w.csv --congestion stress
'stress' examples/scheduler_comparison stress abc
'abc' examples/cluster_migration abc
'0' examples/streaming_feed 0 0 0
--fps1 examples/streaming_feed --fps1 0
--apps examples/quickstart --apps 50
CASES

echo "== run-length scaling smoke (per-event cost independent of history) =="
# Ten times the apps should cost about ten times the host time. Per-event
# work that rescans every app a board has ever admitted grows the ratio
# with run length (about 60 when the runtime and policies did that); the
# bound is loose because the host may be shared. Best of 3 per size.
best_ns() {
  local best=0 t0 t1
  for _ in 1 2 3; do
    t0=$(date +%s%N)
    ./examples/simulate --system versaslot-ol --congestion standard --seed 7 \
      --apps "$1" >/dev/null
    t1=$(date +%s%N)
    if (( best == 0 || t1 - t0 < best )); then best=$((t1 - t0)); fi
  done
  echo "$best"
}
t200=$(cd build && best_ns 200)
t2000=$(cd build && best_ns 2000)
echo "simulate --apps 200: $((t200 / 1000000)) ms, --apps 2000: $((t2000 / 1000000)) ms"
if (( t2000 > 25 * t200 )); then
  echo "run-length scaling: t2000 / t200 exceeds 25" >&2
  exit 1
fi

echo "== committed CSVs: regenerate and byte-compare =="
# Every committed CSV at the repo root is a pure function of its bench's
# seeds, whatever the --jobs worker count. Regenerate all nine in a temp
# dir and cmp each one: any drift means behaviour changed.
cmake --build build -j "$JOBS" --target fig5_response_time fig6_tail_latency \
  fig7_utilization fig8_switching ext_fault_resilience ext_multitenant
repo="$PWD"
csv_dir="$(mktemp -d)"
(cd "$csv_dir" &&
  for b in fig5_response_time fig6_tail_latency fig7_utilization \
           ext_fault_resilience ext_multitenant; do
    "$repo/build/bench/$b" --jobs 4 >/dev/null 2>&1
  done &&
  "$repo/build/bench/fig8_switching" >/dev/null 2>&1 &&
  "$repo/build/bench/ext_fault_resilience" --racks 2 --jobs 4 >/dev/null 2>&1)
for csv in fig5_response_time fig6_tail_latency fig7_utilization \
           fig8_downtime fig8_dswitch_trace fig8_summary ext_fault_resilience \
           ext_fault_resilience_rack ext_multitenant; do
  cmp "$csv_dir/$csv.csv" "$csv.csv"
done
rm -rf "$csv_dir"

echo "== e2ebench digest gate (reference digests at seeds 2025 and 7) =="
# Performance work must leave every output byte-identical. The runner
# builds its driver into .bench_build/, checks each run's digest against
# e2ebench/reference_digests.json and prints "correct": true only when all
# of them match (and conservation and phase sums hold).
for w in paper_grid serve_fleet cluster_chaos long_steady; do
  for seed in 2025 7; do
    result="$(python3 e2ebench/run.py --workload "$w" --seed "$seed" \
      --seconds 0.1 | tail -n 1)"
    if [[ "$result" != *'"correct": true'* ]]; then
      echo "e2ebench $w seed $seed: $result" >&2
      exit 1
    fi
    echo "e2ebench $w seed $seed: correct"
  done
done

echo "== multi-tenant serving smoke (vs_tenant_* metrics in exports) =="
(cd build && ./bench/ext_multitenant --boards 8 --rate 1.0 --horizon 10 \
  --jobs 1 --metrics-out mt_smoke >/dev/null)
grep -q 'vs_tenant_admitted_total' build/mt_smoke.prom
grep -q 'vs_tenant_slo_miss_total' build/mt_smoke.prom
grep -q 'vs_tenant_response_ms' build/mt_smoke.prom

echo "== rack chaos smoke (rack metrics in exports) =="
# The export must carry the rack-event counter (registered only when
# domains are set).
(cd build && ./bench/ext_fault_resilience --racks 2 --apps 12 --seqs 1 \
  --metrics-out rack_smoke >/dev/null)
grep -q 'vs_rack_events_total' build/rack_smoke.prom
grep -q 'vs_recovery_spare_exhausted_total' build/rack_smoke.prom

if [[ "${SKIP_TSAN:-0}" != "1" ]]; then
  echo "== ThreadSanitizer: sweep runner + ordered export writer =="
  cmake -B build-tsan -S . -DVS_SANITIZE=thread
  cmake --build build-tsan -j "$JOBS" --target versaslot_tests
  # halt_on_error so any reported race fails the gate loudly.
  TSAN_OPTIONS="halt_on_error=1" \
    ./build-tsan/tests/versaslot_tests \
    --gtest_filter='ThreadPool.*:SweepDeterminism.*:SweepEdgeCases.*:OrderedExport.*:CaptureGolden.*:DirtyMapUnit.*'
fi

if [[ "${SKIP_ASAN:-0}" != "1" ]]; then
  echo "== AddressSanitizer: event kernel + telemetry + policies + runtime =="
  # The baseline policies index per-app vectors by app id: an id out of
  # range is undefined behaviour that only a sanitizer reports. The
  # crash-detection batch moves MigratedApp vectors from event to event.
  # The CLI parser reads argv through string views and flag-name lists.
  # An app's units, checkpoint progress and dirty map are freed when it
  # leaves the live set and its slot is reused, so a late reader in the
  # runtime, streaming, checkpoint, migration and D_switch paths shows
  # here as a heap-use-after-free, not as a stale value. A hub exports the
  # spans of runtimes that are gone, so it must own every record. The
  # cluster's epochs append to its one completion log, whose growth a
  # completion hook may cause, so a reference held into it would dangle.
  cmake -B build-asan -S . -DVS_SANITIZE=address
  cmake --build build-asan -j "$JOBS" --target versaslot_tests
  ./build-asan/tests/versaslot_tests \
    --gtest_filter='InlineEvent.*:EventQueue*:Simulator.*:Core.*:MetricsRegistry.*:MetricsHandles.*:Histogram.*:PrometheusExport.*:JsonlExport.*:RunReportExport.*:Sampler.*:SamplerChangeLog.*:CaptureGolden.*:Capture.*:BlockWriterNumbers.*:WriteFile.*:OrderedExport.*:Telemetry*:ChannelSpans.*:TraceHub.*:RunJournal.*:PrometheusEscaping.*:PhaseAccounting.*:FaultScenario.*:FaultPlane.*:FaultPlaneValidation.*:AuroraFlap.*:SlotSeu.*:BoardCrash.*:FaultRecovery.*:FaultDeterminism.*:RackEvents.*:RackGolden.*:HazardGolden.*:DetectionWindow.*:*ChaosCampaign*:SparePoolExhausted.*:DSwitchDown.*:Checkpoint*:DirtyMapUnit.*:Precopy*:ArrivalProcess.*:ServeAdmission.*:ServePlane.*:ServeRouting.*:AuditI10.*:Invariants.*:StepwiseAudit.*:AllocationChanges.*:DSwitchGolden.*:Contracts.*:Fcfs.*:RoundRobin.*:Nimblock.*:Dml.*:PolicyCommon.*:BaselineGolden.*:StarvationClock.*:StreamingGolden.*:Cli.*:CrashFlow.*:BoardRuntime.*:ItemPath.*:Streaming.*:Migration.*:RunLength.*:InvariantSweep.*:VersaSlot.*:Cluster.*:SwitchLoop.*'
fi

if [[ "${SKIP_COV:-0}" != "1" ]]; then
  echo "== coverage gate: src/cluster + src/faults + src/runtime + src/sim + src/serve =="
  scripts/coverage.sh
fi

echo "== all checks passed =="
