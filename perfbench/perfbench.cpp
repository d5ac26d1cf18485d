// Performance benchmark runner for wfcloudsim (see perfbench/run.py, which
// builds this program and is the command BENCHMARK.json names).
//
//   wfs_perfbench --workload NAME --seed N --seconds S --trace 0|1 --root DIR
//
// One process, one thread. The untraced pass (--trace 0) calls the
// user-facing entry points, exactly as `wfsim run` / `wfsim sweep --jobs 1`
// do: analysis::runExperiment for single cells, fabric::runFabric over
// fabric::experimentCell for the sweep workload. It reports host CPU time
// per pass (each cell's best over the run's passes, summed), set-up time
// (median of repeated set-ups stopped before the first simulated event) and
// peak resident memory. Host times are process CPU time (see CpuClock in
// traced_cell.hpp): on a shared VM, wall-clock time also counts steal,
// which swings a pass by tens of per cent. Wall-clock pass time is still
// printed per pass on stderr and reported by the traced run as host.wall_s.
// Every timed cell first moves to the least disturbed CPU (quiet_cpu.hpp).
//
// The traced run (--trace 1) alternates untraced passes with traced ones.
// A traced pass rebuilds every cell through traced_cell.cpp, which makes the
// same public calls as runExperiment with a host-time span around each
// module call, and reads the counters the modules expose. Its result lines
// must equal the untraced ones, and its counts those of the first traced
// pass.
//
// Correctness: with seed 42 every Montage line must match
// docs/reference/fig2_montage.jsonl and the synthetic line
// perfbench/expected/synth_layered.jsonl, byte for byte; with any other seed
// every repeat of a cell must reproduce its first line. A mismatching cell
// is counted as failed and its pass yields no timing.
//
// The last stdout line is one JSON object: correct, attempted, failed and
// metrics (name -> {value, unit}). Exit status 1 on any failed cell, 2 on a
// usage or set-up error (no result line then).

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/experiment.hpp"
#include "analysis/export.hpp"
#include "analysis/fabric/cache.hpp"
#include "analysis/fabric/cellid.hpp"
#include "analysis/fabric/fabric.hpp"
#include "analysis/sweep.hpp"
#include "quiet_cpu.hpp"
#include "traced_cell.hpp"

namespace {

using namespace wfs;
using analysis::ExperimentConfig;
using analysis::StorageKind;
using Clock = perfbench::CpuClock;  // every reported host time
using WallClock = std::chrono::steady_clock;

constexpr std::uint64_t kGoldenSeed = 42;
/// Montage size (ExperimentConfig::appScale) of the pvfs-column cells.
constexpr double kPvfsColumnScale = 0.05;
/// Set-up is short, so a run takes at least this many set-up samples and
/// this much set-up time in total, and reports their median.
constexpr std::size_t kMinSetupSamples = 7;
constexpr double kMinSetupSeconds = 1.0;

template <typename C>
double secondsSince(std::chrono::time_point<C> t0) {
  return std::chrono::duration<double>(C::now() - t0).count();
}

/// Best of N. Other tenants of a shared host slow this memory-bound program
/// by up to 2x, in bursts of seconds to minutes, and never speed it up, so
/// the fastest of several timings of the same work is the steadiest
/// estimate of its cost.
double best(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

/// Best of N per cell, summed over the cells. The bursts hit single cells:
/// a pass of a few seconds rarely runs all its cells undisturbed, but over a
/// run each cell usually has one undisturbed repeat. `passes[k][i]` is cell
/// i's time in pass k.
double bestPerCell(const std::vector<std::vector<double>>& passes) {
  if (passes.empty()) return 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < passes.front().size(); ++i) {
    double cell = passes.front()[i];
    for (const std::vector<double>& pass : passes) cell = std::min(cell, pass[i]);
    total += cell;
  }
  return total;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- workloads ---------------------------------------------------------------

struct Workload {
  std::vector<ExperimentConfig> cells;
  bool viaFabric = false;  // run through fabric::runFabric (the sweep path)
};

ExperimentConfig montageCell(StorageKind storage, int nodes, std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.app = analysis::App::kMontage;
  cfg.storage = storage;
  cfg.workerNodes = nodes;
  cfg.seed = seed;
  return cfg;
}

Workload makeWorkload(const std::string& name, std::uint64_t seed) {
  Workload w;
  if (name == "pvfs-column") {
    // The PVFS column of the Fig 2 grid at a twentieth of the published
    // Montage: at full size pvfs/8 alone runs for over half a minute, and
    // the benchmark needs many short cells to take each one's best.
    for (const int nodes : {2, 4, 8}) {
      ExperimentConfig cfg = montageCell(StorageKind::kPvfs, nodes, seed);
      cfg.appScale = kPvfsColumnScale;
      w.cells.push_back(cfg);
    }
  } else if (name == "synth-layered") {
    ExperimentConfig cfg;
    cfg.source = analysis::WorkflowSource::kSynthetic;
    cfg.synthSpec = "layered:tasks=100000,width=317,fanin=2,mix=balanced,cpu=10,file=16MB";
    cfg.storage = StorageKind::kNfs;
    cfg.workerNodes = 8;
    cfg.seed = seed;
    w.cells.push_back(cfg);
  } else if (name == "fig2-light") {
    // The Fig 2 Montage grid minus its PVFS column, in `wfsim sweep` order.
    w.viaFabric = true;
    w.cells.push_back(montageCell(StorageKind::kLocal, 1, seed));
    for (const StorageKind kind :
         {StorageKind::kS3, StorageKind::kNfs, StorageKind::kGlusterNufa, StorageKind::kGlusterDist}) {
      for (const int nodes : {1, 2, 4, 8}) {
        const bool needsTwo = kind == StorageKind::kGlusterNufa || kind == StorageKind::kGlusterDist;
        if (needsTwo && nodes < 2) continue;
        w.cells.push_back(montageCell(kind, nodes, seed));
      }
    }
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (pvfs-column, synth-layered, fig2-light)");
  }
  return w;
}

// --- correctness gate --------------------------------------------------------

std::vector<std::string> readLines(const std::filesystem::path& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

/// The file holding a cell's seed-42 result line, among others.
std::filesystem::path referenceFile(const ExperimentConfig& cfg) {
  if (cfg.source == analysis::WorkflowSource::kSynthetic) return "perfbench/expected/synth_layered.jsonl";
  if (cfg.appScale != 1.0) return "perfbench/expected/pvfs_column.jsonl";
  return "docs/reference/fig2_montage.jsonl";
}

/// Expected result line per cell. Seeded from the goldens for seed 42;
/// otherwise a cell's first line becomes what its repeats must reproduce.
class Gate {
 public:
  Gate(const Workload& w, std::uint64_t seed, const std::filesystem::path& root)
      : expected_(w.cells.size()) {
    if (seed != kGoldenSeed) return;
    std::map<std::filesystem::path, std::vector<std::string>> files;  // read on first use
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
      const ExperimentConfig& cfg = w.cells[i];
      const std::filesystem::path file = referenceFile(cfg);
      auto [it, inserted] = files.try_emplace(file);
      if (inserted) it->second = readLines(root / file);
      for (const std::string& line : it->second) {
        if (analysis::fabric::lineStringField(line, "storage") == analysis::toString(cfg.storage) &&
            analysis::fabric::lineNumberField(line, "nodes") == cfg.workerNodes) {
          expected_[i] = line;
        }
      }
      if (expected_[i].empty()) {
        throw std::runtime_error("no reference line in " + file.string() + " for " +
                                 analysis::toString(cfg.storage) + "/" +
                                 std::to_string(cfg.workerNodes));
      }
    }
  }

  /// True when `line` is the cell's expected line (or becomes it).
  bool check(std::size_t cell, const std::string& line) {
    if (line.empty() || line.find("\"error\"") != std::string::npos) return false;
    if (expected_[cell].empty()) expected_[cell] = line;
    if (line == expected_[cell]) return true;
    std::fprintf(stderr, "perfbench: cell %zu mismatch\n  expected %s\n  got      %s\n", cell,
                 expected_[cell].c_str(), line.c_str());
    return false;
  }

 private:
  std::vector<std::string> expected_;
};

// --- passes ------------------------------------------------------------------

struct PassResult {
  double cpu = 0.0;   // host CPU seconds, summed over the cells
  double wall = 0.0;  // wall-clock seconds, steal included
  std::vector<double> cellCpu;     // host CPU seconds per cell
  std::vector<std::string> lines;  // one per cell; empty when the cell threw
};

/// One untraced pass through the user-facing entry points. Each cell runs on
/// the CPU `quiet` picks just before it; the pick is outside every span.
PassResult untracedPass(const Workload& w, perfbench::QuietCpu& quiet) {
  PassResult p;
  p.cellCpu.resize(w.cells.size());
  Clock::time_point cellStart;
  WallClock::time_point wallStart;
  auto startCell = [&] {
    quiet.pin();
    cellStart = Clock::now();
    wallStart = WallClock::now();
  };
  auto endCell = [&](std::size_t i) {
    p.cellCpu.at(i) = secondsSince(cellStart);
    p.wall += secondsSince(wallStart);
  };
  if (w.viaFabric) {
    startCell();
    std::vector<analysis::fabric::FabricCell> cells;
    cells.reserve(w.cells.size());
    for (const ExperimentConfig& cfg : w.cells) cells.push_back(analysis::fabric::experimentCell(cfg));
    analysis::fabric::FabricOptions opt;
    opt.threads = 1;
    // Cells finish one at a time, so each completion closes the cell's span.
    opt.progress = [&](std::size_t done, std::size_t total, const analysis::fabric::FabricCell& cell,
                       analysis::fabric::CellSource, const analysis::fabric::FabricStats&) {
      endCell(static_cast<std::size_t>(&cell - cells.data()));
      if (done < total) startCell();
    };
    analysis::fabric::FabricOutput out = analysis::fabric::runFabric(cells, opt);
    for (analysis::fabric::FabricRecord& rec : out.records) p.lines.push_back(std::move(rec.line));
  } else {
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
      startCell();
      analysis::SweepCellResult cell;
      cell.config = w.cells[i];
      try {
        cell.result = analysis::runExperiment(cell.config);
        cell.ok = true;
        p.lines.push_back(analysis::cellJson(cell));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s threw: %s\n", cell.label().c_str(), e.what());
        p.lines.emplace_back();
      }
      endCell(i);
    }
  }
  for (const double c : p.cellCpu) p.cpu += c;
  return p;
}

/// Host CPU seconds before the first simulated event, summed over the cells.
double setupSample(const Workload& w, perfbench::QuietCpu& quiet) {
  double total = 0.0;
  for (const ExperimentConfig& cfg : w.cells) {
    quiet.pin();
    total += perfbench::traceCell(cfg, true).setup();
  }
  return total;
}

/// The workload's traced pass, summed over its cells.
struct TracedPass {
  double cpu = 0.0;
  std::vector<double> cellCpu;  // host CPU seconds per cell
  std::vector<perfbench::CellTrace> cells;
};

TracedPass tracedPass(const Workload& w, perfbench::QuietCpu& quiet) {
  TracedPass p;
  for (const ExperimentConfig& cfg : w.cells) {
    quiet.pin();
    const Clock::time_point t0 = Clock::now();
    p.cells.push_back(perfbench::traceCell(cfg));
    p.cellCpu.push_back(secondsSince(t0));
    p.cpu += p.cellCpu.back();
  }
  return p;
}

/// Deterministic counts of a traced pass, flattened for exact comparison.
std::vector<std::uint64_t> countsOf(const TracedPass& p) {
  std::vector<std::uint64_t> c;
  for (const perfbench::CellTrace& t : p.cells) {
    c.insert(c.end(), {t.events, t.netTouches, t.netFills, t.netFlows,
                       static_cast<std::uint64_t>(t.jobs)});
    for (const storage::LayerMetrics& l : t.storage.layers) {
      c.insert(c.end(), {l.readOps, l.writeOps, l.scratchOps, l.discardOps, l.preloadOps});
    }
  }
  return c;
}

/// fabric: cell identity hashing and a warm result-cache round trip per
/// cell, in a scratch directory under `workdir`.
struct FabricProbe {
  double hashMicros = 0.0;  // per configHashHex call
  double storeMillis = 0.0;  // per ResultCache::store
  double hitMillis = 0.0;    // per ResultCache::lookup hit
};

FabricProbe probeFabric(const Workload& w, const std::vector<std::string>& lines,
                        const std::filesystem::path& workdir) {
  constexpr int kHashReps = 200;
  FabricProbe probe;
  std::vector<std::string> hashes;
  Clock::time_point t0 = Clock::now();
  for (int rep = 0; rep < kHashReps; ++rep) {
    hashes.clear();
    for (const ExperimentConfig& cfg : w.cells) hashes.push_back(analysis::fabric::configHashHex(cfg));
  }
  const double cells = static_cast<double>(w.cells.size());
  probe.hashMicros = secondsSince(t0) * 1e6 / (kHashReps * cells);

  const std::filesystem::path dir = workdir / ("cache-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  {
    const analysis::fabric::ResultCache cache{dir.string()};
    t0 = Clock::now();
    for (std::size_t i = 0; i < hashes.size(); ++i) cache.store(hashes[i], lines[i]);
    probe.storeMillis = secondsSince(t0) * 1e3 / cells;
    t0 = Clock::now();
    for (std::size_t i = 0; i < hashes.size(); ++i) {
      if (cache.lookup(hashes[i]) != lines[i]) throw std::runtime_error("fabric cache round trip differs");
    }
    probe.hitMillis = secondsSince(t0) * 1e3 / cells;
  }
  std::filesystem::remove_all(dir);
  return probe;
}

// --- output ------------------------------------------------------------------

class Metrics {
 public:
  void add(const std::string& name, double value, const char* unit) {
    entries_[name] = Entry{value, unit};
  }
  void addTo(const std::string& name, double value, const char* unit) {
    auto [it, inserted] = entries_.try_emplace(name, Entry{0.0, unit});
    it->second.value += value;
  }

  [[nodiscard]] std::string json() const {
    std::string out = "{";
    for (const auto& [name, e] : entries_) {
      if (out.size() > 1) out += ", ";
      out += "\"" + name + "\": {\"value\": " + number(e.value) + ", \"unit\": \"" + e.unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    double value;
    const char* unit;
  };
  static std::string number(double v) {
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
  }
  std::map<std::string, Entry> entries_;
};

double peakRssMb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// Storage ledger names become metric names: `/` is not allowed there.
std::string layerKey(std::string name) {
  std::replace(name.begin(), name.end(), '/', '-');
  return "storage." + name;
}

void addLayerMetrics(Metrics& m, const Workload& w, const std::vector<TracedPass>& passes,
                     const FabricProbe& probe, double tracedCpu, double untracedCpu,
                     double untracedWall) {
  const TracedPass& first = passes.front();
  auto medianOf = [&](auto&& field) {
    std::vector<double> v;
    for (const TracedPass& p : passes) {
      double sum = 0.0;
      for (const perfbench::CellTrace& t : p.cells) sum += field(t);
      v.push_back(sum);
    }
    return median(v);
  };

  // Counts: the first traced pass (every pass repeats them exactly).
  double events = 0.0;
  double touches = 0.0;
  double fills = 0.0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t localReads = 0;
  std::uint64_t remoteReads = 0;
  for (const perfbench::CellTrace& t : first.cells) {
    events += static_cast<double>(t.events);
    touches += static_cast<double>(t.netTouches);
    fills += static_cast<double>(t.netFills);
    m.addTo("simcore.arena_reserved_mb", static_cast<double>(t.arenaReserved) / (1024.0 * 1024.0), "MB");
    m.addTo("simcore.arena_recycle_hits", static_cast<double>(t.arenaRecycleHits), "count");
    m.addTo("net.flows", static_cast<double>(t.netFlows), "count");
    m.addTo("net.gb_moved", t.netBytes / 1e9, "GB");
    m.addTo("wf.jobs", t.jobs, "count");
    m.addTo("wf.makespan_sim_s", t.makespan, "s");
    hits += t.storage.cacheHits;
    misses += t.storage.cacheMisses;
    localReads += t.storage.localReads;
    remoteReads += t.storage.remoteReads;
    for (const storage::LayerMetrics& l : t.storage.layers) {
      const std::string key = layerKey(l.name);
      m.addTo(key + ".ops",
              static_cast<double>(l.readOps + l.writeOps + l.scratchOps + l.discardOps + l.preloadOps),
              "count");
      m.addTo(key + ".self_sim_s", l.selfSeconds, "s");
      m.addTo(key + ".queue_sim_s", l.queueSeconds, "s");
    }
  }
  m.add("simcore.events", events, "count");
  m.add("net.touches", touches, "count");
  m.add("net.fills", fills, "count");
  m.add("net.fills_per_touch", touches > 0 ? fills / touches : 0.0, "ratio");
  m.add("net.touches_per_event", events > 0 ? touches / events : 0.0, "ratio");
  m.add("net.fills_per_event", events > 0 ? fills / events : 0.0, "ratio");
  m.add("storage.cache_hit_ratio",
        hits + misses > 0 ? static_cast<double>(hits) / static_cast<double>(hits + misses) : 0.0,
        "ratio");
  m.add("storage.remote_read_ratio",
        localReads + remoteReads > 0
            ? static_cast<double>(remoteReads) / static_cast<double>(localReads + remoteReads)
            : 0.0,
        "ratio");

  // Host-time spans: medians over the traced passes.
  const bool synthetic = w.cells.front().source == analysis::WorkflowSource::kSynthetic;
  const double runS = medianOf([](const perfbench::CellTrace& t) { return t.run; });
  m.add("simcore.run_s", runS, "s");
  m.add("simcore.ns_per_event", events > 0 ? runS * 1e9 / events : 0.0, "ns");
  m.add("cloud.build_s", medianOf([](const perfbench::CellTrace& t) { return t.cloudBuild; }), "s");
  m.add("storage.build_s", medianOf([](const perfbench::CellTrace& t) { return t.storageBuild; }), "s");
  const double generate = medianOf([](const perfbench::CellTrace& t) { return t.generate; });
  m.add("apps.generate_s", synthetic ? 0.0 : generate, "s");
  m.add("wf.generate_s", synthetic ? generate : 0.0, "s");
  m.add("wf.plan_s", medianOf([](const perfbench::CellTrace& t) { return t.plan; }), "s");
  m.add("storage.preload_s", medianOf([](const perfbench::CellTrace& t) { return t.preload; }), "s");
  m.add("wf.engine_build_s", medianOf([](const perfbench::CellTrace& t) { return t.engineBuild; }), "s");
  m.add("analysis.report_s", medianOf([](const perfbench::CellTrace& t) { return t.report; }), "s");
  m.add("fabric.config_hash_us", probe.hashMicros, "us");
  m.add("fabric.cache_store_ms", probe.storeMillis, "ms");
  m.add("fabric.cache_hit_ms", probe.hitMillis, "ms");
  m.add("trace.cpu_s", tracedCpu, "s");
  m.add("trace.overhead_s", tracedCpu - untracedCpu, "s");
  m.add("host.wall_s", untracedWall, "s");
}

// --- main --------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = kGoldenSeed;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path root = ".";
  std::filesystem::path workdir = ".bench_build/perfbench-work";
};

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace expects 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--root") {
      a.root = value;
    } else if (flag == "--workdir") {
      a.workdir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  return a;
}

int run(const Args& args) {
  const Workload w = makeWorkload(args.workload, args.seed);
  Gate gate{w, args.seed, args.root};
  perfbench::QuietCpu quiet;
  const WallClock::time_point start = WallClock::now();
  auto timeLeft = [&] { return secondsSince(start) < args.seconds; };

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Checks one pass's lines; true when every cell matched.
  auto checkPass = [&](const std::vector<std::string>& lines) {
    bool ok = true;
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
      ++attempted;
      const bool good = i < lines.size() && gate.check(i, lines[i]);
      if (!good) ++failed;
      ok = ok && good;
    }
    return ok;
  };

  Metrics m;
  if (!args.trace) {
    // Without a golden, a run needs a repeat to check against.
    const int minPasses = args.seed == kGoldenSeed ? 1 : 2;
    std::vector<std::vector<double>> cellCpus;  // per pass that passed the gate
    std::vector<double> setups;
    for (int pass = 0; pass < minPasses || timeLeft(); ++pass) {
      setups.push_back(setupSample(w, quiet));
      const PassResult p = untracedPass(w, quiet);
      if (checkPass(p.lines)) cellCpus.push_back(p.cellCpu);
      std::fprintf(stderr, "perfbench: %s pass %d cpu %.3f s wall %.3f s setup %.3f s\n",
                   args.workload.c_str(), pass, p.cpu, p.wall, setups.back());
    }
    double setupTotal = 0.0;
    for (const double v : setups) setupTotal += v;
    while (setups.size() < kMinSetupSamples || setupTotal < kMinSetupSeconds) {
      setups.push_back(setupSample(w, quiet));
      setupTotal += setups.back();
    }
    m.add("cpu_s", bestPerCell(cellCpus), "s");
    m.add("setup_s", median(setups), "s");
    m.add("peak_rss_mb", peakRssMb(), "MB");
  } else {
    // Untraced and traced passes alternate, so both see the same warm-up
    // and machine state and their difference is the tracing overhead.
    std::vector<std::vector<double>> untracedCpus;  // per cell, passes that passed the gate
    std::vector<double> untracedWalls;
    std::vector<std::vector<double>> tracedCpus;
    std::vector<TracedPass> passes;
    std::vector<std::string> reference;  // runExperiment's lines, first pass
    do {
      const PassResult untraced = untracedPass(w, quiet);
      if (checkPass(untraced.lines)) {
        untracedCpus.push_back(untraced.cellCpu);
        untracedWalls.push_back(untraced.wall);
      }
      if (reference.empty()) reference = untraced.lines;
      TracedPass p = tracedPass(w, quiet);
      std::vector<std::string> lines;
      for (const perfbench::CellTrace& t : p.cells) lines.push_back(t.line);
      // Self-check: the traced pass must reproduce runExperiment's line,
      // and every traced pass the first one's counts.
      for (std::size_t i = 0; i < lines.size(); ++i) {
        if (i >= reference.size() || lines[i] != reference[i]) {
          std::fprintf(stderr, "perfbench: traced cell %zu differs from runExperiment\n", i);
          lines[i].clear();
        }
      }
      if (!passes.empty() && countsOf(p) != countsOf(passes.front())) {
        std::fprintf(stderr, "perfbench: traced counts differ between passes\n");
        for (std::string& line : lines) line.clear();
      }
      if (checkPass(lines)) tracedCpus.push_back(p.cellCpu);
      std::fprintf(stderr, "perfbench: %s pass %zu cpu %.3f s traced %.3f s\n", args.workload.c_str(),
                   passes.size(), untraced.cpu, p.cpu);
      passes.push_back(std::move(p));
    } while (timeLeft());
    const FabricProbe probe = probeFabric(w, reference, args.workdir);
    addLayerMetrics(m, w, passes, probe, bestPerCell(tracedCpus), bestPerCell(untracedCpus),
                    best(untracedWalls));
  }

  const bool correct = failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), m.json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
