#include "runtime/sim_cluster.h"

#include <utility>

namespace fuse {

// Discrete-event backend: virtual time, direct protocol calls, fault rules
// applied to the SimNetwork the fabric consults on every attempt.
class SimDeployment : public Deployment {
 public:
  explicit SimDeployment(ClusterConfig config)
      : config_(std::move(config)), sim_(config_.seed) {
    Topology topo = Topology::Generate(config_.topology, sim_.rng());
    net_ = std::make_unique<SimNetwork>(std::move(topo));
    fabric_ = std::make_unique<SimFabric>(sim_, *net_, config_.cost, config_.tcp);
    // Mirrors the harness's own adjustment, so config() reflects how nodes
    // are actually constructed.
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
  void SetStallLimit(uint64_t events) override { sim_.queue().SetStallLimit(events); }
  TimePoint StalledAt() const override { return sim_.queue().stalled_at(); }

  const ClusterConfig& config() const { return config_; }
  Simulation& sim() { return sim_; }
  SimNetwork& net() { return *net_; }
  SimFabric& fabric() { return *fabric_; }

 private:
  ClusterConfig config_;
  Simulation sim_;
  std::unique_ptr<SimNetwork> net_;
  std::unique_ptr<SimFabric> fabric_;
  RouterId machine_;
};

HarnessConfig SimHarnessConfig(const ClusterConfig& c) {
  HarnessConfig hc;
  hc.num_nodes = c.num_nodes;
  hc.overlay = c.overlay;
  hc.fuse = c.fuse;
  hc.join_batch = c.join_batch;
  // Blocked layout matching AddSimHost's router boundary
  // (`index % hosts_per_machine == 0` starts a new machine), so the harness's
  // machine map names exactly the co-location the topology models.
  hc.placement = Placement::Pack(c.num_nodes, c.hosts_per_machine < 1 ? 1 : c.hosts_per_machine);
  return hc;  // timing keeps the virtual-time defaults
}

HostId AddSimHost(const ClusterConfig& c, size_t index, SimNetwork& net, Rng& rng,
                  RouterId* machine) {
  if (c.hosts_per_machine <= 1) {
    return net.AddHost(rng);
  }
  if (index % static_cast<size_t>(c.hosts_per_machine) == 0) {
    *machine = net.topology().RandomRouter(rng);
  }
  return net.AddHostAt(*machine);
}

SimCluster::SimCluster(ClusterConfig config)
    : ClusterHarness(std::make_unique<SimDeployment>(config), SimHarnessConfig(config)),
      sim_deploy_(static_cast<SimDeployment*>(&deployment())) {}

SimCluster::~SimCluster() = default;

Simulation& SimCluster::sim() { return sim_deploy_->sim(); }
SimNetwork& SimCluster::net() { return sim_deploy_->net(); }
SimFabric& SimCluster::fabric() { return sim_deploy_->fabric(); }
const ClusterConfig& SimCluster::config() const { return sim_deploy_->config(); }

}  // namespace fuse
