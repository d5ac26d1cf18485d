#include "traced_cell.hpp"

#include <chrono>
#include <memory>
#include <stdexcept>
#include <vector>

#include "analysis/export.hpp"
#include "analysis/sweep.hpp"
#include "apps/montage.hpp"
#include "cloud/billing.hpp"
#include "cloud/context_broker.hpp"
#include "cloud/provisioner.hpp"
#include "net/fabric.hpp"
#include "net/flow_network.hpp"
#include "prof/wfprof.hpp"
#include "simcore/rng.hpp"
#include "simcore/simulator.hpp"
#include "storage/gluster/gluster_fs.hpp"
#include "storage/local/local_fs.hpp"
#include "storage/nfs/nfs_fs.hpp"
#include "storage/pvfs/pvfs_fs.hpp"
#include "storage/s3/s3_fs.hpp"
#include "wf/catalogs.hpp"
#include "wf/engine.hpp"
#include "wf/planner.hpp"
#include "wf/scheduler.hpp"
#include "wf/synth/generate.hpp"
#include "wf/synth/spec.hpp"

namespace perfbench {

namespace {

using Clock = CpuClock;
using namespace wfs;
using analysis::StorageKind;

/// Accumulates the host CPU time since the last lap into `slot`.
class Lap {
 public:
  void into(double& slot) {
    const Clock::time_point now = Clock::now();
    slot += std::chrono::duration<double>(now - last_).count();
    last_ = now;
  }

 private:
  Clock::time_point last_ = Clock::now();
};

std::unique_ptr<storage::StorageSystem> makeStore(const analysis::ExperimentConfig& cfg,
                                                  sim::Simulator& sim, net::FlowNetwork& net,
                                                  net::Fabric& fabric,
                                                  cloud::VirtualCluster& cluster) {
  std::vector<storage::StorageNode> nodes = cluster.workerNodes();
  switch (cfg.storage) {
    case StorageKind::kLocal:
      return std::make_unique<storage::LocalFs>(sim, nodes);
    case StorageKind::kS3:
      return std::make_unique<storage::S3Fs>(sim, net, nodes);
    case StorageKind::kNfs: {
      storage::NfsFs::Config nfsCfg;
      nfsCfg.server.threads = cluster.auxiliary->type().cores;
      return std::make_unique<storage::NfsFs>(sim, fabric, nodes,
                                              cluster.auxiliary->storageNode(), nfsCfg);
    }
    case StorageKind::kGlusterNufa:
    case StorageKind::kGlusterDist:
      return std::make_unique<storage::GlusterFs>(
          sim, fabric, nodes,
          cfg.storage == StorageKind::kGlusterNufa ? storage::GlusterMode::kNufa
                                                   : storage::GlusterMode::kDistribute,
          storage::GlusterFs::Config{});
    case StorageKind::kPvfs:
      return std::make_unique<storage::PvfsFs>(sim, fabric, nodes, storage::PvfsFs::Config{});
    default:
      throw std::invalid_argument(std::string("perfbench: traced pass has no ") +
                                  analysis::toString(cfg.storage) + " backend");
  }
}

wf::AbstractWorkflow makeWorkflow(const analysis::ExperimentConfig& cfg, sim::Rng& rng,
                                  wf::TransformationCatalog& tc) {
  if (cfg.source == analysis::WorkflowSource::kSynthetic) {
    const wf::synth::SynthSpec spec = wf::synth::SynthSpec::parse(cfg.synthSpec);
    wf::synth::registerSynthTransformations(tc);
    return wf::synth::makeSynthetic(spec, rng);
  }
  if (cfg.source != analysis::WorkflowSource::kBuiltinApp ||
      cfg.app != analysis::App::kMontage) {
    throw std::invalid_argument("perfbench: traced pass runs Montage and synthetic workflows");
  }
  apps::registerMontageTransformations(tc);
  apps::MontageConfig mc;
  mc.scale = cfg.appScale;
  return apps::makeMontage(mc, rng);
}

}  // namespace

CellTrace traceCell(const analysis::ExperimentConfig& cfg, bool setupOnly) {
  if (cfg.faults.active() || cfg.replicas != 1 || cfg.ecK != 0 || cfg.trace) {
    throw std::invalid_argument("perfbench: traced pass covers fault-free, unreplicated cells");
  }
  CellTrace t;
  Lap lap;

  // --- cloud: the simulated world and the virtual cluster -------------------
  sim::Simulator sim;
  net::FlowNetwork net{sim};
  net::Fabric fabric{net, net::Fabric::Config{}};
  sim::Rng rng{cfg.seed};
  cloud::BillingEngine billing;
  cloud::Provisioner::Config provCfg;
  if (!cfg.firstWritePenalty) provCfg.vmOptions.disk.firstWriteRate = provCfg.vmOptions.disk.writeRate;
  cloud::Provisioner prov{sim, net, billing, provCfg};
  cloud::VirtualCluster cluster;
  for (int i = 0; i < cfg.workerNodes; ++i) {
    cluster.workers.push_back(prov.request(cfg.workerType, "worker" + std::to_string(i)));
  }
  if (cfg.storage == StorageKind::kNfs) cluster.auxiliary = prov.request(cfg.nfsServerType, "nfs-server");
  cloud::ContextBroker broker{sim, prov};
  lap.into(t.cloudBuild);

  // --- storage -------------------------------------------------------------
  std::unique_ptr<storage::StorageSystem> store = makeStore(cfg, sim, net, fabric, cluster);
  lap.into(t.storageBuild);

  // --- apps / wf: generate, then plan --------------------------------------
  wf::TransformationCatalog tc;
  sim::Rng appRng = rng.fork();
  wf::AbstractWorkflow abstract = makeWorkflow(cfg, appRng, tc);
  lap.into(t.generate);

  wf::ReplicaCatalog rc;
  for (const auto& f : abstract.externalInputs) rc.registerReplica(f.lfn, store->name());
  wf::SiteCatalog site;
  site.workerNodes = cfg.workerNodes;
  site.coresPerNode = cluster.workers.front()->type().cores;
  site.memoryPerNode = cluster.workers.front()->type().memory;
  site.storageSystem = store->name();
  wf::Planner planner{tc, rc, site};
  wf::Planner::Options planOpt;
  planOpt.clusterFactor = cfg.clusterFactor;
  wf::ExecutableWorkflow exec = planner.plan(std::move(abstract), planOpt);
  lap.into(t.plan);

  for (const auto& f : exec.externalInputs) store->preload(f.lfn, f.size);
  lap.into(t.preload);

  // --- wf: scheduler and engine --------------------------------------------
  std::vector<int> slots;
  std::vector<sim::Resource*> memories;
  for (auto& vm : cluster.workers) {
    slots.push_back(vm->type().cores);
    memories.push_back(&vm->memory());
  }
  wf::Scheduler scheduler{sim, slots,
                          cfg.dataAwareScheduling ? wf::Scheduler::Policy::kDataAware
                                                  : wf::Scheduler::Policy::kFifo,
                          store.get()};
  prof::WfProf prof;
  wf::DagmanEngine::Options engineOpt;
  engineOpt.coreSpeed = cluster.workers.front()->type().coreSpeed;
  wf::DagmanEngine engine{sim, exec, *store, scheduler, memories, &prof, engineOpt};
  lap.into(t.engineBuild);
  if (setupOnly) return t;

  // --- simcore: the run ----------------------------------------------------
  sim.spawn([](cloud::ContextBroker& cb, cloud::VirtualCluster& vc, sim::Rng& r,
               wf::DagmanEngine& eng) -> sim::Task<void> {
    co_await cb.deploy(vc, r);
    co_await eng.execute();
  }(broker, cluster, rng, engine));
  t.events = sim.run();
  lap.into(t.run);
  if (engine.completedJobs() != exec.dag.jobCount()) {
    throw std::logic_error("perfbench: traced workflow did not complete");
  }

  // --- analysis: cost and the result line ----------------------------------
  const double makespan = engine.makespan().asSeconds();
  const auto start = sim::SimTime::origin();
  const auto end = start + sim::Duration::fromSeconds(makespan);
  for (auto& vm : cluster.workers) billing.recordInstance(vm->type(), start, end);
  if (cluster.auxiliary) billing.recordInstance(cluster.auxiliary->type(), start, end);
  if (cfg.storage == StorageKind::kS3) {
    auto& s3 = static_cast<storage::S3Fs&>(*store);
    billing.recordS3Requests(s3.objectStore().putCount(), s3.objectStore().getCount());
    billing.recordS3Storage(s3.objectStore().bytesStored(), makespan);
  }
  analysis::SweepCellResult cell;
  cell.config = cfg;
  cell.ok = true;
  cell.result.makespanSeconds = makespan;
  cell.result.cost = billing.report();
  cell.result.storageMetrics = store->metrics();
  cell.result.profile = prof.profile();
  cell.result.tasks = exec.dag.jobCount();
  cell.result.storageName = store->name();
  cell.result.workflowName = exec.name;
  t.line = analysis::cellJson(cell);
  lap.into(t.report);

  t.arenaReserved = sim.arena().bytesReserved();
  t.arenaRecycleHits = sim.arena().recycleHits();
  t.netTouches = net.settleTouches();
  t.netFills = net.fillCount();
  t.netFlows = net.completedFlows();
  t.netBytes = net.totalBytesMoved();
  t.jobs = exec.dag.jobCount();
  t.makespan = makespan;
  t.storage = std::move(cell.result.storageMetrics);
  return t;
}

}  // namespace perfbench
