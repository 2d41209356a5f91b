// Iterative pre-copy live migration (VM-style upgrade of §III-D).
//
// The paper's D_switch migration is stop-and-copy: origin boards pause,
// the whole migratable DDR state crosses the Aurora link, then execution
// resumes on the target — downtime scales with total state. Pre-copy
// instead streams state *while the origins keep executing*: the first
// round ships the full migratable image, every following round ships only
// the regions dirtied since the previous round (the migration plane of
// each app's runtime::DirtyMap), and the loop stops when a round's dirty
// residue converges below a threshold or the round cap is hit. Only then
// do the origins pause, and the stop-and-copy transfer carries just the
// final delta — downtime shrinks from full-state to last-delta.
//
// Off by default: with `precopy` false every switch takes the whole-state
// stop-and-copy path.
#pragma once

#include <cstdint>

namespace vs::cluster {

struct MigrationPolicy {
  /// Enables the pre-copy loop for D_switch migrations.
  bool precopy = false;
  /// Hard cap on streamed rounds, counting the initial full-state round.
  /// Write-heavy origins that never converge stop here.
  int max_rounds = 4;
  /// Convergence threshold: stop streaming once a round's dirty bytes fall
  /// to this fraction of the first (full) round.
  double convergence = 0.125;
  /// Absolute convergence floor: a residue at or below this many bytes is
  /// always worth stopping for, whatever the ratio says.
  std::int64_t min_dirty_bytes = 64 * 1024;

  [[nodiscard]] bool active() const noexcept {
    return precopy && max_rounds >= 1;
  }
};

}  // namespace vs::cluster
