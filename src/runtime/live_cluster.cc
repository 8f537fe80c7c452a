#include "runtime/live_cluster.h"

#include "runtime/loop_deployment.h"
#include "runtime/placement.h"

namespace fuse {

namespace {

// The cluster-level seed is authoritative: it feeds the runtime's protocol
// rng (node ids, join bootstraps, churn intervals, protocol jitter) and,
// through a derived stream, the send path's loss/latency draws.
LiveRuntime::Config RuntimeConfigFrom(const LiveClusterConfig& c) {
  LiveRuntime::Config rc = c.runtime;
  rc.seed = c.seed;
  return rc;
}

}  // namespace

// Wall-clock in-process backend: one loop thread, marshalled protocol access,
// real sleeps (all from LoopDeployment). Fault rules live inside LiveRuntime,
// consulted by its Send path under the loop lock.
class LiveDeployment : public LoopDeployment {
 public:
  explicit LiveDeployment(const LiveClusterConfig& config)
      : LoopDeployment(RuntimeConfigFrom(config)) {}

  Transport* CreateHost(size_t /*index*/) override { return runtime_->CreateHost(); }

  void CrashHost(HostId h) override {
    // Fail-stop: the fault rules drop the host's traffic both ways, and the
    // dispatch table empties like a process that vanished (a restarted node
    // re-registers, as in the paper's stable-storage-free recovery).
    runtime_->SetHostDown(h, true);
    runtime_->UnregisterAllHandlers(h);
  }

  void RestartHost(HostId h) override { runtime_->SetHostDown(h, false); }
};

LiveClusterConfig LiveClusterConfig::FastProtocol(int num_nodes, uint64_t seed) {
  LiveClusterConfig cfg;
  cfg.num_nodes = num_nodes;
  cfg.seed = seed;
  // Scaled-down protocol constants (the LiveRuntime test settings): full
  // failure-detection and repair cycles complete within a couple of seconds.
  cfg.overlay.ping_period = Duration::Millis(200);
  cfg.overlay.ping_timeout = Duration::Millis(100);
  cfg.overlay.join_timeout = Duration::Millis(500);
  cfg.overlay.query_timeout = Duration::Millis(200);
  cfg.overlay.repair_delay = Duration::Millis(50);
  cfg.overlay.leaf_exchange_period = Duration::Millis(500);
  cfg.fuse.create_timeout = Duration::Seconds(2);
  cfg.fuse.install_timeout = Duration::Seconds(1);
  cfg.fuse.member_repair_timeout = Duration::Millis(600);
  cfg.fuse.root_repair_timeout = Duration::Seconds(1);
  cfg.fuse.link_liveness_timeout = Duration::Millis(400);
  cfg.fuse.grace_period = Duration::Millis(100);
  cfg.fuse.repair_backoff_initial = Duration::Millis(100);
  cfg.fuse.repair_backoff_cap = Duration::Millis(400);
  // Wall-clock wait bounds matched to those constants.
  cfg.timing.join_wait = Duration::Seconds(20);
  cfg.timing.settle_round = Duration::Millis(400);
  cfg.timing.restart_wait = Duration::Seconds(20);
  return cfg;
}

namespace {

HarnessConfig HarnessConfigFrom(const LiveClusterConfig& c) {
  HarnessConfig hc;
  hc.num_nodes = c.num_nodes;
  hc.overlay = c.overlay;
  hc.fuse = c.fuse;
  hc.join_batch = c.join_batch;
  hc.timing = c.timing;
  hc.placement = Placement::Pack(c.num_nodes, c.nodes_per_machine < 1 ? 1 : c.nodes_per_machine);
  return hc;
}

}  // namespace

LiveCluster::LiveCluster(LiveClusterConfig config)
    : ClusterHarness(std::make_unique<LiveDeployment>(config), HarnessConfigFrom(config)),
      live_deploy_(static_cast<LiveDeployment*>(&deployment())) {}

LiveCluster::~LiveCluster() = default;

LiveRuntime& LiveCluster::runtime() { return live_deploy_->runtime(); }

}  // namespace fuse
