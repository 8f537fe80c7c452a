#include "runtime/sharded_sim_cluster.h"

#include <utility>

#include "common/logging.h"
#include "sim/shard.h"

namespace fuse {

// Sharded discrete-event backend. Structure mirrors SimDeployment
// (sim_cluster.cc); the differences are the engine (ShardedSim + worker
// pool), the fabric (shard-local send state, outbox crossings), and Defer —
// which is what keeps harness-shared state off the worker threads.
class ShardedDeployment : public Deployment {
 public:
  explicit ShardedDeployment(ClusterConfig config)
      : config_(std::move(config)),
        sim_(config_.seed, static_cast<uint32_t>(config_.num_shards), config_.threads) {
    FUSE_CHECK(config_.num_shards >= 1) << "sharded backend needs num_shards >= 1";
    // Topology generation and host placement draw from the control RNG, in
    // the same order as the classic backend — the partition only decides
    // where a host's events run, never where the host sits.
    Topology topo = Topology::Generate(config_.topology, sim_.rng());
    net_ = std::make_unique<SimNetwork>(std::move(topo));
    fabric_ = std::make_unique<ShardedFabric>(sim_, *net_, config_.cost, config_.tcp,
                                              static_cast<size_t>(config_.num_nodes),
                                              config_.hosts_per_machine);
    config_.overlay.start_maintenance_on_join = false;
  }

  Environment& env() override { return sim_; }

  Transport* CreateHost(size_t index) override {
    return fabric_->TransportFor(AddSimHost(config_, index, *net_, sim_.rng(), &machine_));
  }

  void CrashHost(HostId h) override { fabric_->CrashHost(h); }
  void RestartHost(HostId h) override { fabric_->RestartHost(h); }

  void ApplyFaults(const std::function<void(FaultInjector&)>& fn) override {
    fn(net_->faults());
  }

  void Run(const std::function<void()>& fn) override { fn(); }
  void AdvanceFor(Duration d) override { sim_.RunFor(d); }
  bool AwaitCondition(const std::function<bool()>& pred, Duration bound) override {
    return sim_.RunUntilCondition(pred, sim_.Now() + bound);
  }
  bool virtual_time() const override { return true; }
  void SetStallLimit(uint64_t events) override { sim_.SetStallLimit(events); }
  TimePoint StalledAt() const override { return sim_.StalledAt(); }

  // Harness upcalls issued from protocol code run on whichever shard owns the
  // calling host; defer them to the control thread's barrier replay. Calls
  // already in barrier/control context (Current() == nullptr) run inline.
  void Defer(std::function<void()> fn) override {
    if (Shard* s = Shard::Current()) {
      s->DeferUpcall(std::move(fn));
      return;
    }
    fn();
  }

  const ClusterConfig& config() const { return config_; }
  ShardedSim& sim() { return sim_; }
  SimNetwork& net() { return *net_; }
  ShardedFabric& fabric() { return *fabric_; }

 private:
  ClusterConfig config_;
  ShardedSim sim_;
  std::unique_ptr<SimNetwork> net_;
  std::unique_ptr<ShardedFabric> fabric_;
  RouterId machine_;
};

ShardedSimCluster::ShardedSimCluster(ClusterConfig config)
    : ClusterHarness(std::make_unique<ShardedDeployment>(config), SimHarnessConfig(config)),
      sharded_deploy_(static_cast<ShardedDeployment*>(&deployment())) {}

ShardedSimCluster::~ShardedSimCluster() = default;

ShardedSim& ShardedSimCluster::sim() { return sharded_deploy_->sim(); }
SimNetwork& ShardedSimCluster::net() { return sharded_deploy_->net(); }
ShardedFabric& ShardedSimCluster::fabric() { return sharded_deploy_->fabric(); }
const ClusterConfig& ShardedSimCluster::config() const { return sharded_deploy_->config(); }

std::unique_ptr<ClusterHarness> MakeSimCluster(ClusterConfig config) {
  if (config.num_shards > 0) {
    return std::make_unique<ShardedSimCluster>(std::move(config));
  }
  return std::make_unique<SimCluster>(std::move(config));
}

}  // namespace fuse
