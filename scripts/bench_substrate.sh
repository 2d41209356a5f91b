#!/usr/bin/env bash
# Substrate perf trajectory: builds and runs the event-kernel
# micro-benchmarks and records the results in BENCH_substrate.json
# (google-benchmark JSON format; the `allocs_per_event` counter must be 0 —
# the kernel's zero-allocation contract).
#
#   scripts/bench_substrate.sh          # 3 repetitions, aggregates only
#   REPS=1 scripts/bench_substrate.sh   # quick single pass
#
# Reference numbers on the original std::function + binary-heap kernel
# (container baseline, PR 2): BM_EventQueueScheduleAndPop/1000 12.8M
# events/s, /10000 6.9M events/s, BM_SimulatorEventRate 26.7M events/s,
# allocations >= 1 per event. The slab + InlineEvent kernel must hold
# >= 1.5x those rates at 0 allocations per steady-state event.
#
# BM_MetricsOverhead measures the telemetry handles' hot-path cost:
# /0 (registry disabled — null handles, the shipping default), /1
# (registry bound) and /bare (the same loop with the handle calls compiled
# out). BM_PhaseAccountingOverhead does the same for the phase-accounting
# and hub-channel guards: /0 (accounting off, no hub — the shipping
# default), /1 and /bare. Every arm must keep allocs_per_event at 0
# (scripts/check.sh enforces it). The /0-to-bare rate ratio, printed
# below, isolates the guards' cost; it is reported, not gated, because
# this host's run-to-run spread is wider than the few percent it reads.
# BM_CoreOpChain runs sim::Core op chains (ops started on an idle core and
# ops queued behind a busy one; /parked with EventFn callbacks) and must
# keep allocs_per_event at 0.
# BM_PolicyPassAllocs/0..5 report `allocs_per_pass`, the heap allocations
# inside each paper system's scheduling passes over a 20-app stress
# sequence; every system must stay below 0.05.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
REPS="${REPS:-3}"

cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS" --target micro_substrate >/dev/null

./build/bench/micro_substrate \
  --benchmark_filter='BM_EventQueueScheduleAndPop|BM_SimulatorEventRate|BM_SimulatorInterleavedChains|BM_SimulatorHoldModel|BM_CoreOpChain|BM_MetricsOverhead|BM_PhaseAccountingOverhead|BM_PcapQueueing|BM_PolicyPassAllocs' \
  --benchmark_repetitions="$REPS" \
  --benchmark_report_aggregates_only=true \
  --benchmark_out=BENCH_substrate.json \
  --benchmark_out_format=json

python3 - BENCH_substrate.json <<'PY'
import json
import sys

# Medians across repetitions (single runs when REPS=1).
rates = {b["run_name"]: b.get("items_per_second")
         for b in json.load(open(sys.argv[1]))["benchmarks"]
         if b.get("aggregate_name", "median") == "median"}
for bench in ("BM_MetricsOverhead", "BM_PhaseAccountingOverhead"):
    guarded, bare = rates.get(bench + "/0"), rates.get(bench + "/bare")
    if guarded and bare:
        print(f"{bench}: /0 runs at {guarded / bare:.3f}x the bare rate "
              "(reported, not gated)")
PY

echo
echo "Recorded to BENCH_substrate.json"
