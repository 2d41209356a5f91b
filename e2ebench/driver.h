// Shared pieces of the end-to-end benchmark driver: workload inputs, the
// outcome of one simulation run in a driver-independent form, the output
// digest, the correctness gate, and the in-memory span recorder used by the
// traced drivers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "apps/task.h"
#include "cluster/cluster.h"
#include "runtime/board_runtime.h"
#include "serve/serve.h"
#include "util/stats.h"
#include "workload/generator.h"

namespace e2e {

/// Host seconds on a monotonic clock.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process user+sys CPU seconds (every thread).
double cpu_s();

enum class Workload { kPaperGrid, kServeFleet, kClusterChaos, kLongSteady };

/// Parses a workload name; returns false when unknown.
bool parse_workload(const std::string& name, Workload* out);

/// Everything a workload run consumes, generated up front from the seed.
struct Inputs {
  Workload workload = Workload::kPaperGrid;
  std::vector<vs::apps::AppSpec> suite;
  // paper_grid: sequences[congestion][k]
  std::vector<std::vector<vs::workload::Sequence>> grid;
  // cluster_chaos / long_steady
  vs::workload::Sequence sequence;
  vs::cluster::ClusterOptions cluster;
  // serve_fleet
  vs::serve::ServeConfig serve;
  std::int64_t serve_trace_size = 0;  ///< arrivals the serve run must see
  double workload_gen_s = 0;  ///< host time in the workload generators
  int sweep_jobs = 1;         ///< SweepRunner workers (paper_grid only)
};

/// Builds the suite, configs and generated sequences / traces.
Inputs make_inputs(Workload w, std::uint64_t seed, bool tiny);

/// Capture is on for cluster_chaos: telemetry, trace hub (trace + journal)
/// and phase accounting, with all three exports. `capture` false runs the
/// same simulation with every observability hook off.
struct Capture {
  bool on = false;
  std::string prefix;  ///< output path prefix for the exports
};

/// Incremental FNV-1a over 64-bit words.
class Digest {
 public:
  void add(std::int64_t v);
  void add(double v);
  void add(const std::string& s);
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// The simulated outputs of one workload run, whichever driver produced
/// them. Every field is a pure function of the inputs.
struct Outcome {
  std::int64_t submitted = 0;  ///< apps (or serve arrivals) offered
  std::int64_t completed = 0;
  std::int64_t lost = 0;           ///< recovery: died with a board
  std::int64_t shed = 0;           ///< recovery: degradation shedding
  std::int64_t arrivals_shed = 0;  ///< recovery throttle
  std::int64_t rejected = 0;       ///< serve admission
  bool phase_accounting = false;
  std::vector<double> response_ms;  ///< per completed app, when known
  vs::util::Summary response;       ///< over every completed app
  Digest digest;       ///< every simulated output
  Digest core_digest;  ///< same, without phase accounts (capture-invariant)
  std::vector<std::string> gate_errors;
  std::uint64_t events = 0;  ///< kernel events (0 when the driver hides it)
};

/// Folds a completed app into the digests and runs its phase-sum check.
void add_app(Outcome& o, const vs::runtime::CompletedApp& c);
/// Conservation law + response summary; call once every app is added.
void finish_outcome(Outcome& o);

/// Outcome of a serve run (public or traced driver); `trace_size` is the
/// generated trace's arrival count, which the run must have seen.
Outcome fold_serve(const vs::serve::ServeResult& r, std::int64_t trace_size);

/// Outcome folding for a cluster run (public or traced driver).
void add_cluster(Outcome& o, const std::vector<vs::runtime::CompletedApp>& apps,
                 const std::vector<vs::cluster::SwitchEvent>& switches,
                 std::size_t dswitch_samples,
                 const vs::cluster::RecoveryStats& r,
                 const vs::runtime::CheckpointStats& ck, int submitted);

/// One recorded span: a timed call into one module's public function.
struct Span {
  std::string name;
  double start_s = 0;
  double end_s = 0;
  int parent = -1;
  int run = -1;  ///< shared by every span of one simulation run
};

/// In-memory span log, written out once when the traced run ends.
class Tracer {
 public:
  int begin(const std::string& name, int parent, int run);
  void end(int id);
  [[nodiscard]] double duration(int id) const;
  void write(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Per-layer metrics of a traced run, by `<module>.<metric>` name.
using Layers = std::map<std::string, double>;

/// Result of running a workload once, through the public or traced drivers.
struct RunOutput {
  Outcome outcome;
  Layers layers;  ///< filled by the traced drivers only
};

RunOutput run_public(const Inputs& in, const Capture& capture);
RunOutput run_traced(const Inputs& in, const Capture& capture,
                     Tracer& tracer);
/// Reruns a captured cluster workload with capture off (traced): sets
/// obs.capture_overhead_frac against `captured_s` and checks that the
/// simulated outputs did not change.
void check_capture_off(const Inputs& in, double captured_s, Tracer& tracer,
                       RunOutput& out);

}  // namespace e2e
