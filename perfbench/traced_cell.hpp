#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <string>

#include "analysis/experiment.hpp"
#include "storage/base/metrics.hpp"

namespace perfbench {

/// Host CPU time of the whole process, as a std::chrono clock. The benchmark
/// is single-threaded, so this is the pass's wall time minus the time the
/// hypervisor ran other tenants on our CPU (steal). On a shared VM steal
/// comes and goes in bursts that inflate wall-clock timings by up to 70 %;
/// CPU time does not count it.
struct CpuClock {
  using duration = std::chrono::nanoseconds;
  using rep = duration::rep;
  using period = duration::period;
  using time_point = std::chrono::time_point<CpuClock>;
  static constexpr bool is_steady = true;

  static time_point now() noexcept {
    timespec ts{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return time_point{std::chrono::seconds{ts.tv_sec} + std::chrono::nanoseconds{ts.tv_nsec}};
  }
};

/// Host-time spans around the calls one cell makes into each module, plus
/// the counters those modules already expose. All spans are host CPU
/// seconds measured from outside the call; nothing here reaches inside a
/// module.
struct CellTrace {
  // --- spans (host CPU seconds) ---------------------------------------------
  double cloudBuild = 0.0;    // simulator, flow network, provisioning, broker
  double storageBuild = 0.0;  // storage-system construction
  double generate = 0.0;      // transformation registration + DAG generation
  double plan = 0.0;          // catalogs + Planner::plan
  double preload = 0.0;       // StorageSystem::preload of every external input
  double engineBuild = 0.0;   // Scheduler + DagmanEngine construction
  double run = 0.0;           // Simulator::run
  double report = 0.0;        // billing, metrics snapshot, cellJson

  /// Everything before the first simulated event.
  [[nodiscard]] double setup() const {
    return cloudBuild + storageBuild + generate + plan + preload + engineBuild;
  }

  // --- counters (deterministic for a given config) -------------------------
  std::uint64_t events = 0;
  std::uint64_t arenaReserved = 0;
  std::uint64_t arenaRecycleHits = 0;
  std::uint64_t netTouches = 0;
  std::uint64_t netFills = 0;
  std::uint64_t netFlows = 0;
  double netBytes = 0.0;
  int jobs = 0;
  double makespan = 0.0;
  wfs::storage::StorageMetrics storage;

  /// The cell's result line, byte-comparable with cellJson(runExperiment()).
  std::string line;
};

/// Builds and runs one cell with the same public calls runExperiment makes,
/// timing each module call. With `setupOnly` it stops before the first
/// simulated event, leaving only the set-up spans filled in. Supports the
/// fault-free, unreplicated configurations the benchmark workloads use and
/// throws std::invalid_argument for anything else.
[[nodiscard]] CellTrace traceCell(const wfs::analysis::ExperimentConfig& cfg,
                                  bool setupOnly = false);

}  // namespace perfbench
