#include "runtime/cluster.h"

#include <algorithm>
#include <cstdio>

#include "common/logging.h"

namespace fuse {

ClusterHarness::ClusterHarness(std::unique_ptr<Deployment> deployment, HarnessConfig config)
    : deploy_(std::move(deployment)), config_(std::move(config)) {
  // The harness starts maintenance explicitly once the whole overlay exists;
  // this keeps construction cheap and matches a coordinated deployment.
  config_.overlay.start_maintenance_on_join = false;
  // Backends that don't co-locate leave the placement default-constructed;
  // normalize it to one node per machine so MachineOf/CrashMachine always
  // have a consistent map to consult.
  if (config_.placement.num_nodes != config_.num_nodes) {
    FUSE_CHECK(config_.placement.num_nodes == 0)
        << "placement covers " << config_.placement.num_nodes << " nodes, cluster has "
        << config_.num_nodes;
    config_.placement = Placement::Pack(config_.num_nodes, 1);
  }
}

ClusterHarness::~ClusterHarness() {
  // Quiesce the backend first: once no protocol code can run concurrently
  // (the live loop thread is joined; the sim pumps nothing on its own),
  // churn timers and nodes tear down on this thread without racing queued
  // deliveries or send callbacks that reference them.
  deploy_->PrepareTeardown();
  churning_ = false;
  for (Timer& t : churn_timers_) {
    t.Cancel();
  }
  churn_timers_.clear();
  nodes_.clear();
  graveyard_.clear();
}

std::string ClusterHarness::NameOf(size_t i) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "node%05zu", i);
  return buf;
}

std::unique_ptr<Node> ClusterHarness::MakeNode(size_t i) {
  const NumericId numeric(env().rng().NextU64());
  return std::make_unique<Node>(transports_[i], NameOf(i), numeric, config_.overlay,
                                config_.fuse);
}

bool ClusterHarness::IsJoined(size_t i) {
  return nodes_[i] != nullptr && nodes_[i]->overlay()->joined();
}

void ClusterHarness::CreateNodeInContext(size_t i) { nodes_[i] = MakeNode(i); }

void ClusterHarness::JoinFirstInContext(size_t i) { nodes_[i]->overlay()->JoinAsFirst(); }

void ClusterHarness::JoinInContext(size_t i, size_t boot,
                                   std::function<void(const Status&)> done) {
  // The completion mutates harness bookkeeping (Build's batch counters), so
  // it is deferred to a context where that is safe on every backend.
  nodes_[i]->overlay()->Join(
      hosts_[boot], [this, done = std::move(done)](const Status& s) {
        deploy_->Defer([done, s] { done(s); });
      });
}

void ClusterHarness::StartMaintenanceInContext(size_t i) {
  nodes_[i]->overlay()->StartMaintenance();
}

void ClusterHarness::LeafExchangeInContext(size_t i) {
  nodes_[i]->overlay()->RunLeafExchangeOnce();
}

void ClusterHarness::RetireNodeInContext(size_t i) {
  FUSE_CHECK(nodes_[i] != nullptr) << "bad crash target";
  nodes_[i]->ShutdownAll();
  graveyard_.push_back(std::move(nodes_[i]));
}

void ClusterHarness::ReviveNodeInContext(size_t i, size_t boot) {
  FUSE_CHECK(nodes_[i] == nullptr) << "bad restart target";
  nodes_[i] = MakeNode(i);
  if (boot == i) {
    nodes_[i]->overlay()->JoinAsFirst();
    nodes_[i]->overlay()->StartMaintenance();
    return;
  }
  nodes_[i]->overlay()->Join(hosts_[boot], [this, i](const Status& s) {
    if (s.ok() && nodes_[i] != nullptr) {
      nodes_[i]->overlay()->StartMaintenance();
    }
  });
}

void ClusterHarness::CreateGroupInContext(size_t root, std::vector<NodeRef> members,
                                          std::function<void(const Status&, FuseId)> cb) {
  nodes_[root]->fuse()->CreateGroup(
      std::move(members), [this, cb = std::move(cb)](const Status& s, FuseId id) {
        deploy_->Defer([cb, s, id] { cb(s, id); });
      });
}

void ClusterHarness::WatchGroupMemberInContext(size_t m, FuseId id,
                                               std::function<void()> on_fire) {
  nodes_[m]->fuse()->RegisterFailureHandler(
      id, [this, fire = std::move(on_fire)](FuseId) { deploy_->Defer(fire); });
}

void ClusterHarness::SignalGroupInContext(size_t node, FuseId id) {
  if (nodes_[node] != nullptr) {
    nodes_[node]->fuse()->SignalFailure(id);
  }
}

void ClusterHarness::Build() {
  FUSE_CHECK(nodes_.empty() && up_.empty()) << "Build called twice";
  const int n = config_.num_nodes;
  transports_.reserve(n);
  hosts_.reserve(n);
  for (int i = 0; i < n; ++i) {
    Transport* t = deploy_->CreateHost(static_cast<size_t>(i));
    transports_.push_back(t);
    // Backends without in-process transports (worker OS processes) identify
    // hosts positionally.
    hosts_.push_back(t != nullptr ? t->local_host() : HostId(static_cast<uint64_t>(i)));
  }

  nodes_.resize(n);
  up_.assign(n, true);
  deploy_->Run([&] {
    for (int i = 0; i < n; ++i) {
      CreateNodeInContext(i);
    }
    // Node 0 seeds the overlay; the rest join in batches against random
    // already-joined nodes.
    JoinFirstInContext(0);
  });
  int joined_count = 1;
  int next = 1;
  while (next < n) {
    const int batch_end = std::min(n, next + config_.join_batch);
    int pending = batch_end - next;
    int failures = 0;
    deploy_->Run([&] {
      for (int i = next; i < batch_end; ++i) {
        const size_t boot = static_cast<size_t>(env().rng().UniformInt(0, joined_count - 1));
        JoinInContext(i, boot, [&pending, &failures](const Status& s) {
          --pending;
          if (!s.ok()) {
            ++failures;
          }
        });
      }
    });
    const bool joined = deploy_->AwaitCondition([&] { return pending == 0; },
                                                config_.timing.join_wait);
    // Snapshot the counters in the protocol context: on a live-backend
    // timeout, straggler join callbacks may still be mutating them on the
    // loop thread.
    int pending_now = 0;
    int failures_now = 0;
    deploy_->Run([&] {
      pending_now = pending;
      failures_now = failures;
    });
    FUSE_CHECK(joined && pending_now == 0 && failures_now == 0)
        << "overlay build failed: " << failures_now << " join failures, " << pending_now
        << " pending";
    joined_count = batch_end;
    next = batch_end;
  }

  deploy_->Run([&] {
    for (int i = 0; i < n; ++i) {
      StartMaintenanceInContext(i);
    }
  });
  // Converge the level-0 ring before handing the overlay to applications:
  // a few anti-entropy rounds let leaf sets settle so that steady state has
  // no further pointer churn (which would otherwise trigger spurious FUSE
  // tree repairs right after the experiment starts).
  for (int round = 0; round < 3; ++round) {
    deploy_->Run([&] {
      for (int i = 0; i < n; ++i) {
        LeafExchangeInContext(i);
      }
    });
    deploy_->AdvanceFor(config_.timing.settle_round);
  }
}

void ClusterHarness::Crash(size_t i) {
  deploy_->Run([this, i] { CrashInContext(i); });
}

void ClusterHarness::CrashInContext(size_t i) {
  FUSE_CHECK(i < up_.size() && up_[i]) << "bad crash target";
  up_[i] = false;
  deploy_->CrashHost(hosts_[i]);
  RetireNodeInContext(i);
}

void ClusterHarness::CrashMachine(size_t machine) {
  deploy_->Run([this, machine] {
    std::vector<size_t> victims;
    for (const size_t i : config_.placement.NodesOn(static_cast<int>(machine))) {
      if (up_[i]) {
        victims.push_back(i);
      }
    }
    FUSE_CHECK(!victims.empty()) << "no live nodes on machine " << machine;
    // Mark every co-hosted node down BEFORE the backend acts: the machine
    // dies as one event, and no observer (churn timers, IsUp probes) may see
    // a half-crashed machine.
    std::vector<HostId> hosts;
    hosts.reserve(victims.size());
    for (const size_t i : victims) {
      up_[i] = false;
      hosts.push_back(hosts_[i]);
    }
    deploy_->CrashMachine(hosts);
    for (const size_t i : victims) {
      RetireNodeInContext(i);
    }
  });
}

void ClusterHarness::RestartMachine(size_t machine) {
  for (const size_t i : config_.placement.NodesOn(static_cast<int>(machine))) {
    bool dead = false;
    deploy_->Run([&] { dead = !up_[i]; });
    if (dead) {
      Restart(i);
    }
  }
}

void ClusterHarness::RestartAsync(size_t i) {
  deploy_->Run([this, i] { RestartAsyncInContext(i); });
}

void ClusterHarness::RestartAsyncInContext(size_t i) {
  FUSE_CHECK(i < up_.size() && !up_[i]) << "bad restart target";
  deploy_->RestartHost(hosts_[i]);
  up_[i] = true;
  // Bootstrap from any live node other than ourselves.
  size_t boot = i;
  for (int tries = 0; tries < 64; ++tries) {
    const size_t candidate =
        static_cast<size_t>(env().rng().UniformInt(0, static_cast<int64_t>(up_.size()) - 1));
    if (candidate != i && IsUp(candidate) && IsJoined(candidate)) {
      boot = candidate;
      break;
    }
  }
  ReviveNodeInContext(i, boot);
}

void ClusterHarness::Restart(size_t i) {
  RestartAsync(i);
  deploy_->AwaitCondition([this, i] { return IsJoined(i); }, config_.timing.restart_wait);
}

void ClusterHarness::StartChurn(size_t first, size_t count, Duration mean_uptime,
                                Duration mean_downtime) {
  deploy_->Run([&] {
    churning_ = true;
    churn_uptime_ = mean_uptime;
    churn_downtime_ = mean_downtime;
    churn_timers_.resize(nodes_.size());
    for (size_t i = first; i < first + count && i < nodes_.size(); ++i) {
      ScheduleChurnDeath(i);
    }
  });
}

void ClusterHarness::StopChurn() {
  deploy_->Run([this] {
    churning_ = false;
    for (Timer& t : churn_timers_) {
      t.Cancel();
    }
  });
}

void ClusterHarness::ScheduleChurnDeath(size_t i) {
  const Duration life = Duration::SecondsF(env().rng().Exponential(churn_uptime_.ToSecondsF()));
  churn_timers_[i].Bind(env());
  churn_timers_[i].Start(life, [this, i] {
    if (!churning_) {
      return;
    }
    if (!IsUp(i)) {
      // A backend may report a reviving node as not-up-yet (a process worker
      // mid-respawn). If the node is nominally up, keep the kill/restart
      // cycle alive by drawing a fresh lifetime; only a truly crashed node
      // (up_ false: its rebirth timer owns the next step) ends this chain.
      if (up_[i]) {
        ScheduleChurnDeath(i);
      }
      return;
    }
    CrashInContext(i);
    ScheduleChurnRebirth(i);
  });
}

void ClusterHarness::ScheduleChurnRebirth(size_t i) {
  const Duration down = Duration::SecondsF(env().rng().Exponential(churn_downtime_.ToSecondsF()));
  churn_timers_[i].Start(down, [this, i] {
    if (!churning_ || up_[i]) {
      return;
    }
    RestartAsyncInContext(i);
    ScheduleChurnDeath(i);
  });
}

size_t ClusterHarness::NumLiveNodes() {
  size_t n = 0;
  deploy_->Run([&] {
    for (size_t i = 0; i < nodes_.size(); ++i) {
      if (IsUp(i)) {
        ++n;
      }
    }
  });
  return n;
}

std::vector<size_t> ClusterHarness::PickLiveNodes(size_t k) {
  std::vector<size_t> live;
  deploy_->Run([&] {
    live.reserve(nodes_.size());
    for (size_t i = 0; i < nodes_.size(); ++i) {
      if (IsUp(i)) {
        live.push_back(i);
      }
    }
    FUSE_CHECK(k <= live.size()) << "not enough live nodes";
    env().rng().Shuffle(live);
    live.resize(k);
  });
  return live;
}

NodeRef ClusterHarness::RefOf(size_t i) const {
  // Names and hosts are stable across crash/restart, so refs can be built
  // even for currently-dead nodes (e.g. to attempt creating a group that
  // includes one).
  return NodeRef{NameOf(i), hosts_[i]};
}

std::vector<NodeRef> ClusterHarness::RefsOf(const std::vector<size_t>& indices) {
  std::vector<NodeRef> refs;
  refs.reserve(indices.size());
  for (size_t i : indices) {
    refs.push_back(RefOf(i));
  }
  return refs;
}

// The two structural probes below read in-process overlay state, so they
// only see nodes this process hosts (on a multi-process backend, remote
// nodes are skipped rather than dereferenced).
double ClusterHarness::AvgDistinctNeighbors() {
  size_t total = 0;
  size_t live = 0;
  deploy_->Run([&] {
    for (size_t i = 0; i < nodes_.size(); ++i) {
      if (IsUp(i) && nodes_[i] != nullptr) {
        total += nodes_[i]->overlay()->NumDistinctNeighbors();
        ++live;
      }
    }
  });
  return live == 0 ? 0.0 : static_cast<double>(total) / static_cast<double>(live);
}

int ClusterHarness::CountRingViolations() {
  // Collect live nodes sorted by name; check each cw level-0 pointer.
  int violations = 0;
  deploy_->Run([&] {
    std::vector<size_t> live;
    for (size_t i = 0; i < nodes_.size(); ++i) {
      if (IsUp(i) && nodes_[i] != nullptr) {
        live.push_back(i);
      }
    }
    if (live.size() < 2) {
      return;
    }
    std::sort(live.begin(), live.end(), [this](size_t a, size_t b) {
      return nodes_[a]->ref().name < nodes_[b]->ref().name;
    });
    for (size_t k = 0; k < live.size(); ++k) {
      const size_t i = live[k];
      const size_t expected = live[(k + 1) % live.size()];
      const NodeRef& cw = nodes_[i]->overlay()->table().level(0).cw;
      if (!cw.valid() || cw.name != nodes_[expected]->ref().name) {
        ++violations;
      }
    }
  });
  return violations;
}

}  // namespace fuse
