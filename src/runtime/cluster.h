// ClusterHarness: deployment-agnostic cluster machinery — topology-wide
// build/join, fail-stop crash and restart, the churn driver, fault-rule
// application, and the structural probes the paper's experiments use
// (section 7). The harness is parameterized over a small Deployment backend
// interface; the discrete-event simulator (SimCluster) and the wall-clock
// threaded runtime (LiveCluster) are both thin adapters over it, so every
// fault schedule written against the harness runs unchanged on either — the
// paper's "identical code base except for the base messaging layer" claim,
// now including the failure drivers, not just the protocol stack.
//
// Per-node operations (create, join, crash/retire, group create, failure
// watches) are virtual *InContext hooks: the in-process backends implement
// them with direct Node access, while ProcessCluster
// (src/runtime/process_cluster.h) overrides them with control-protocol
// commands to worker OS processes — which is what lets one scenario
// definition drive nodes it cannot touch in memory.
#ifndef FUSE_RUNTIME_CLUSTER_H_
#define FUSE_RUNTIME_CLUSTER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/fault_injector.h"
#include "runtime/node.h"
#include "runtime/placement.h"
#include "sim/environment.h"
#include "sim/timer.h"

namespace fuse {

// Harness-level waits. Defaults are the simulator's virtual-time bounds; a
// wall-clock backend substitutes bounds matched to its (scaled) protocol
// constants.
struct HarnessTiming {
  // Bound on one batch of overlay joins during Build.
  Duration join_wait = Duration::Minutes(10);
  // Quiet period after each anti-entropy round during Build.
  Duration settle_round = Duration::Seconds(30);
  // Bound on a blocking Restart rejoining the overlay.
  Duration restart_wait = Duration::Minutes(5);
};

// The backend surface the harness needs: create hosts, crash/restart them at
// the fabric level, apply fault rules, execute in the protocol context, and
// advance (virtual or wall-clock) time.
class Deployment {
 public:
  virtual ~Deployment() = default;

  virtual Environment& env() = 0;

  // Creates host `index`'s transport endpoint. Placement policy (e.g. router
  // co-location) is backend-specific. Called once per host, in index order.
  // A backend whose hosts live in other processes (no in-process transport)
  // returns nullptr; the harness then assigns HostId(index) directly.
  virtual Transport* CreateHost(size_t index) = 0;

  // Fabric-level fail-stop crash: connections break, handlers clear, and the
  // fault rules mark the host down. Restart brings a fresh incarnation up.
  virtual void CrashHost(HostId h) = 0;
  virtual void RestartHost(HostId h) = 0;

  // Crashes every host co-located on one machine as a single failure event.
  // The default decomposes into per-host crashes (correct for in-process
  // backends, where a "machine" is bookkeeping); a backend whose machines are
  // real units of failure (one worker OS process hosting N nodes) overrides
  // this with one genuine kill.
  virtual void CrashMachine(const std::vector<HostId>& hosts) {
    for (const HostId h : hosts) {
      CrashHost(h);
    }
  }

  // Runs `fn` against the backend's fault rules under the backend's locking
  // discipline (none in the sim; the loop lock in the live runtime). In-process
  // backends take effect by the time this returns; a multi-process backend
  // replicates the rules to its workers asynchronously (effect within a
  // propagation window, not on return) — schedules that need an exact fault
  // edge must allow for that, as the shared scenarios' bounded waits do.
  virtual void ApplyFaults(const std::function<void(FaultInjector&)>& fn) = 0;

  // Executes `fn` in the protocol context and waits for it: a direct call in
  // the single-threaded sim, a loop-thread marshal (inline when already on
  // the loop thread) in the live runtime. All node/overlay/FUSE access from
  // outside the protocol context must go through here.
  virtual void Run(const std::function<void()>& fn) = 0;

  // Advances time by `d`: virtual time in the sim, a wall-clock sleep live.
  virtual void AdvanceFor(Duration d) = 0;

  // Runs until `pred` (evaluated in the protocol context) holds or `bound`
  // elapses; returns pred's final value. Virtual-time event pumping in the
  // sim, bounded wall-clock polling live.
  virtual bool AwaitCondition(const std::function<bool()>& pred, Duration bound) = 0;

  // True when time is simulated (waits are exact and free).
  virtual bool virtual_time() const = 0;

  // Livelock guard for simulated time (see EventQueue::SetStallLimit): once
  // `events` events in a row run at one instant the engine stops running
  // events, and StalledAt() returns that instant (TimePoint::Max() until
  // then). Wall-clock backends ignore it.
  virtual void SetStallLimit(uint64_t /*events*/) {}
  virtual TimePoint StalledAt() const { return TimePoint::Max(); }

  // Quiesces the backend ahead of harness teardown: after this returns, no
  // protocol code runs concurrently (the live runtime stops and joins its
  // loop thread; the sim — already quiescent between Run*/Advance calls —
  // needs nothing), so node destruction is race-free on the caller's
  // thread. The deployment must still accept Schedule/Cancel calls (node
  // and timer destructors issue them) without running anything.
  virtual void PrepareTeardown() {}

  // Defers a harness-level upcall (join completion, group-create result,
  // failure-watch fire) to a point where it may safely touch harness-shared
  // state. Single-context backends run it immediately; the sharded simulator
  // records it on the executing shard and replays it on the control thread at
  // the next epoch barrier, in deterministic (time, shard, seq) order.
  virtual void Defer(std::function<void()> fn) { fn(); }
};

// Deployment-independent slice of a cluster configuration.
struct HarnessConfig {
  int num_nodes = 0;
  SkipNetConfig overlay;
  FuseParams fuse;
  // Nodes joined concurrently during Build (smaller = slower but gentler).
  int join_batch = 16;
  HarnessTiming timing;
  // Which machine each node lives on. Backends fill this from their own
  // co-location knobs; left default it is normalized to one node per machine
  // in the harness constructor.
  Placement placement;
};

class ClusterHarness {
 public:
  ClusterHarness(std::unique_ptr<Deployment> deployment, HarnessConfig config);
  virtual ~ClusterHarness();

  ClusterHarness(const ClusterHarness&) = delete;
  ClusterHarness& operator=(const ClusterHarness&) = delete;

  // Creates all hosts and joins every node into the overlay, then starts
  // liveness maintenance everywhere. Advances time as needed.
  // FUSE_CHECK-fails if the overlay could not be built.
  void Build();

  Deployment& deployment() { return *deploy_; }
  Environment& env() { return deploy_->env(); }
  const HarnessConfig& harness_config() const { return config_; }

  size_t size() const { return up_.size(); }
  // In-process backends only: direct access to the node stack. A
  // multi-process backend has no in-memory nodes (use the *InContext
  // vocabulary below instead).
  Node& node(size_t i) { return *nodes_[i]; }
  // Plain read; during live churn, sample it from the protocol context (Run).
  virtual bool IsUp(size_t i) const { return nodes_[i] != nullptr && up_[i]; }
  // True once node i's overlay join completed. Evaluate in the protocol
  // context during churn.
  virtual bool IsJoined(size_t i);
  static std::string NameOf(size_t i);

  // --- protocol-context execution and time control (see Deployment) ---
  void Run(const std::function<void()>& fn) { deploy_->Run(fn); }
  void AdvanceFor(Duration d) { deploy_->AdvanceFor(d); }
  bool Await(const std::function<bool()>& pred, Duration bound) {
    return deploy_->AwaitCondition(pred, bound);
  }
  void ApplyFaults(const std::function<void(FaultInjector&)>& fn) { deploy_->ApplyFaults(fn); }
  bool virtual_time() const { return deploy_->virtual_time(); }
  void SetStallLimit(uint64_t events) { deploy_->SetStallLimit(events); }
  TimePoint StalledAt() const { return deploy_->StalledAt(); }

  // --- failure injection ---
  // Fail-stop crash: the node loses all state and stops participating.
  void Crash(size_t i);
  // Restart after a crash: fresh node state (new numeric id, no FUSE state),
  // rejoins the overlay via a live bootstrap. Blocks until joined.
  void Restart(size_t i);
  // Variant that only initiates the rejoin (for use inside the protocol
  // context, e.g. from a churn timer).
  void RestartAsync(size_t i);

  // --- machine-level failure (paper section 2: the machine is the real unit
  // --- of failure; co-hosted nodes die together) ---
  const Placement& placement() const { return config_.placement; }
  int MachineOf(size_t i) const { return config_.placement.MachineOf(i); }
  // Crashes every live node on `machine` as one failure event (a single
  // SIGKILL on the process backend). At least one node there must be up.
  void CrashMachine(size_t machine);
  // Restarts (blocking, one by one) every crashed node on `machine`.
  void RestartMachine(size_t machine);

  // --- churn driver (paper section 7.5) ---
  // Starts kill/restart cycles for nodes [first, first+count): exponential
  // up-times and down-times with the given means.
  void StartChurn(size_t first, size_t count, Duration mean_uptime, Duration mean_downtime);
  void StopChurn();
  size_t NumLiveNodes();

  // --- conveniences for benches/tests ---
  // k distinct live nodes drawn uniformly (indices). When `limit` is given,
  // only indices below it are considered (e.g. the stable half of a churned
  // cluster).
  std::vector<size_t> PickLiveNodes(size_t k);
  std::vector<size_t> PickLiveNodes(size_t k, size_t limit);
  // Stable overlay reference for a node (valid even while it is crashed).
  NodeRef RefOf(size_t i) const;
  std::vector<NodeRef> RefsOf(const std::vector<size_t>& indices);
  double AvgDistinctNeighbors();

  // Level-0 ring consistency check: every live node's clockwise level-0
  // pointer is the next live node in name order. Returns the number of
  // violations (0 = perfect ring).
  int CountRingViolations();

  // --- node-op vocabulary (run these from the protocol context) ---
  // These are what the backend-parameterized scenario definitions
  // (runtime/scenario.cc) are written against: issue a group create rooted at
  // node `root`, and watch a member for failure notifications. The base
  // implementations touch the in-process Node stack; ProcessCluster overrides
  // them with worker commands.
  virtual void CreateGroupInContext(size_t root, std::vector<NodeRef> members,
                                    std::function<void(const Status&, FuseId)> cb);
  // Registers a failure watch: `on_fire` runs in the protocol context every
  // time node `m`'s handler for group `id` fires (so a duplicate notification
  // is observable as a second invocation).
  virtual void WatchGroupMemberInContext(size_t m, FuseId id, std::function<void()> on_fire);
  // Explicitly signals group failure from node `node` (paper 3.4: application
  // fail-on-send / voluntary departure). GroupService's Signal rides on this.
  virtual void SignalGroupInContext(size_t node, FuseId id);

 protected:
  // Per-node operations Build/Crash/Restart/churn route through; override all
  // of these to drive nodes that live outside this process. Each runs in the
  // protocol context.
  virtual void CreateNodeInContext(size_t i);
  virtual void JoinFirstInContext(size_t i);
  virtual void JoinInContext(size_t i, size_t boot, std::function<void(const Status&)> done);
  virtual void StartMaintenanceInContext(size_t i);
  virtual void LeafExchangeInContext(size_t i);
  // Crash aftermath once the fabric-level crash happened: quiesce and park
  // the node object (in-process), or nothing (the process is gone).
  virtual void RetireNodeInContext(size_t i);
  // Restart aftermath once the fabric-level restart happened: bring up a
  // fresh node incarnation and rejoin via `boot` (boot == i means the node
  // must seed a fresh overlay: no other live joined node existed).
  virtual void ReviveNodeInContext(size_t i, size_t boot);

  void CrashInContext(size_t i);
  void RestartAsyncInContext(size_t i);

  std::unique_ptr<Deployment> deploy_;
  HarnessConfig config_;
  std::vector<Transport*> transports_;
  std::vector<HostId> hosts_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<bool> up_;

 private:
  void ScheduleChurnDeath(size_t i);
  void ScheduleChurnRebirth(size_t i);
  std::unique_ptr<Node> MakeNode(size_t i);

  // Crashed node objects are parked here until teardown so that in-flight
  // callbacks referencing them stay safe (they check their shutdown flags).
  std::vector<std::unique_ptr<Node>> graveyard_;
  bool churning_ = false;
  Duration churn_uptime_;
  Duration churn_downtime_;
  // One kill/restart timer per churned node; StopChurn disarms them all
  // instead of leaving dead events in the queue.
  std::vector<Timer> churn_timers_;
};

}  // namespace fuse

#endif  // FUSE_RUNTIME_CLUSTER_H_
