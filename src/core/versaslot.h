// VersaSlot — public umbrella header.
//
// Pulls in the full public API: the simulated FPGA substrate, the
// application/benchmark model, the workload generators, the six scheduling
// systems, the cluster with live migration, and the experiment harness.
//
// Quick start:
//
//   #include "core/versaslot.h"
//   using namespace vs;
//
//   fpga::BoardParams params;
//   auto suite = apps::make_suite(params);
//   workload::WorkloadConfig wl;                       // Standard arrivals
//   auto seqs = workload::generate_sequences(wl, 1, /*seed=*/42);
//   auto result = metrics::run_single_board(
//       metrics::SystemKind::kVersaBigLittle, suite, seqs[0]);
//   std::cout << result.response.mean << " ms mean response\n";
#pragma once

#include "apps/benchmarks.h"      // IWYU pragma: export
#include "apps/bundling.h"        // IWYU pragma: export
#include "apps/offline_flow.h"    // IWYU pragma: export
#include "apps/synthesis.h"       // IWYU pragma: export
#include "apps/task.h"            // IWYU pragma: export
#include "baselines/baseline_exclusive.h"  // IWYU pragma: export
#include "baselines/dml.h"        // IWYU pragma: export
#include "baselines/fcfs.h"       // IWYU pragma: export
#include "baselines/nimblock.h"   // IWYU pragma: export
#include "baselines/round_robin.h"  // IWYU pragma: export
#include "cluster/aurora.h"       // IWYU pragma: export
#include "cluster/cluster.h"      // IWYU pragma: export
#include "core/dswitch.h"         // IWYU pragma: export
#include "core/versaslot_policy.h"  // IWYU pragma: export
#include "fpga/board.h"           // IWYU pragma: export
#include "fpga/fabric.h"          // IWYU pragma: export
#include "fpga/params.h"          // IWYU pragma: export
#include "metrics/experiment.h"   // IWYU pragma: export
#include "obs/trace_hub.h"        // IWYU pragma: export
#include "runtime/board_runtime.h"  // IWYU pragma: export
#include "runtime/invariants.h"   // IWYU pragma: export
#include "sim/simulator.h"        // IWYU pragma: export
#include "util/stats.h"           // IWYU pragma: export
#include "util/table.h"           // IWYU pragma: export
#include "workload/generator.h"   // IWYU pragma: export
