// Composite workload patterns and sequence persistence.
//
// The paper's evaluation uses fixed-regime sequences (generator.h); the
// cluster experiments additionally need load that *changes over time* so
// the D_switch signal has a trajectory. This module provides phased
// sequences (each phase draws arrivals from one congestion regime) and CSV
// import/export so a workload can be pinned, shared and replayed exactly.
// Open-loop Poisson arrivals come from ArrivalProcess (generator.h).
#pragma once

#include <string>
#include <vector>

#include "workload/generator.h"

namespace vs::workload {

/// One phase of a composite workload.
struct Phase {
  int count = 0;                 ///< number of arrivals in this phase
  Congestion congestion = Congestion::kStandard;
};

/// Concatenates phases into one sequence; batch sizes and app choices are
/// drawn per arrival exactly as in generate_sequence.
[[nodiscard]] Sequence phased_sequence(const std::vector<Phase>& phases,
                                       util::Rng& rng,
                                       const WorkloadConfig& config = {});

/// The Fig 8 long workload: a congested burst then standard-interval
/// arrivals (see EXPERIMENTS.md for why this reproduces the paper's
/// congestion-then-relief trajectory).
[[nodiscard]] Sequence fig8_long_workload(std::uint64_t seed,
                                          int burst = 30, int total = 80);

/// CSV persistence: "spec_index,arrival_ns,batch" per row with a header.
/// Throws std::runtime_error naming the path if a write fails.
void save_sequence(const Sequence& sequence, const std::string& path);

/// Loads a saved sequence for a suite of `suite_size` apps; throws
/// std::runtime_error on unreadable files, malformed rows and spec indices
/// outside the suite.
[[nodiscard]] Sequence load_sequence(const std::string& path,
                                     std::size_t suite_size);

}  // namespace vs::workload
