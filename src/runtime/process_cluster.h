// ProcessCluster: the N-process deployment — nodes run in worker OS
// processes (one "machine" each) over the real socket transport
// (src/transport/socket_transport.h), and the harness drives them through a
// small control protocol instead of in-memory calls. Linux-only.
//
// Topology of one deployment:
//
//   test process (controller)
//     ├── ProcessDeployment: LiveRuntime epoll loop owns the control
//     │   channels (one unix-socketpair FramedSocket per worker) + the
//     │   spawner channel + churn timers; fault rules are mirrored here and
//     │   broadcast to workers on every ApplyFaults.
//     ├── spawner (forked FIRST, while the controller is single-threaded):
//     │   a flat loop that forks workers on request and hands their control
//     │   fds back over SCM_RIGHTS — so mid-run restarts never fork from a
//     │   threaded process.
//     └── worker processes (forked by the spawner): each runs its own
//         LiveRuntime epoll loop + one fabric listener, and hosts the Node
//         stacks of every node the placement assigns it — the worker is the
//         "machine". Inter-machine traffic is length-prefixed WireMessages
//         over loopback TCP (or coalesced datagrams on kUdp); co-hosted
//         nodes short-circuit through the fabric's local dispatch table.
//
// Machine-crash semantics are real: with one node per worker (num_workers ==
// num_nodes, the default) CrashHost sends SIGKILL — peers observe broken TCP
// connections and refused dials, not a simulated flag — and CrashMachine is
// one SIGKILL taking down every co-hosted node at once. A single-node crash
// on a multi-tenant worker is instead an in-place kill (the node quiesces,
// its handlers unregister, fault rules mark the host down) because the
// process must survive for its co-tenants. Restart of a dead worker forks a
// fresh incarnation (new port, empty state), re-advertised to every peer
// through the controller's address map; nodes rejoin the overlay through a
// live bootstrap exactly like the paper's stable-storage-free recovery.
//
// ProcessCluster overrides ClusterHarness's per-node hooks with control
// commands, so Build/Crash/Restart/churn, the agreement oracle
// (fuzz/fuzz_runner.h) and the scenario schedules it grades (fuzz/scenario.h:
// CrashMember, PartitionHeal, ChurnDuringCreate, MachineFailure, Signal) run
// unchanged across OS processes (ctest -L process-parity, -L procN).
#ifndef FUSE_RUNTIME_PROCESS_CLUSTER_H_
#define FUSE_RUNTIME_PROCESS_CLUSTER_H_

#if defined(__linux__)

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "runtime/cluster.h"
#include "runtime/placement.h"
#include "transport/socket_transport.h"

namespace fuse {

struct ProcessClusterConfig {
  int num_nodes = 8;
  // Worker processes hosting the nodes. 0 (the default) means one worker per
  // node — the classic layout. Smaller values pack nodes onto multi-tenant
  // workers in placement blocks: 1000 nodes on 16 workers is 16 epoll loops
  // and 16 fabric listeners, not 1000 processes.
  int num_workers = 0;
  // Single seed: the controller's rng drives node numeric ids, join
  // bootstraps and churn; each worker derives its own stream from
  // (seed, worker, incarnation).
  uint64_t seed = 1;
  SkipNetConfig overlay;
  FuseParams fuse;
  int join_batch = 4;
  HarnessTiming timing;
  SocketFabric::Options socket;
  // Inter-worker messaging layer: kTcp (socket fabric, the default) or kUdp
  // (datagram fabric: coalesced datagrams, app-level retransmit, loss is
  // silence). The choice is tagged onto the control protocol (Hello and
  // address broadcasts) so controller/worker skew fails loudly.
  TransportKind transport = TransportKind::kTcp;
  // Pre-seeded peer addresses: hosts that live outside this controller's
  // worker set (a second deployment on another machine). Typically loaded
  // from an address-map file or flag via PeerAddressMap::LoadFile/FromText
  // (format: one `<host-id> <a.b.c.d>:<port>` per line); the workers' own
  // ephemeral-port advertisements overlay these entries.
  PeerAddressMap static_addrs;

  // Scaled protocol constants (the LiveCluster FastProtocol settings) with
  // wait bounds widened for process forks and real TCP handshakes.
  static ProcessClusterConfig FastProtocol(int num_nodes, uint64_t seed);

  // The node -> worker map this config describes (blocked layout).
  Placement MakePlacement() const {
    return num_workers > 0 ? Placement::Machines(num_nodes, num_workers)
                           : Placement::Pack(num_nodes, 1);
  }
};

class ProcessDeployment;

class ProcessCluster : public ClusterHarness {
 public:
  explicit ProcessCluster(ProcessClusterConfig config);
  ~ProcessCluster() override;

  bool IsUp(size_t i) const override;
  bool IsJoined(size_t i) override;

  void CreateGroupInContext(size_t root, std::vector<NodeRef> members,
                            std::function<void(const Status&, FuseId)> cb) override;
  void WatchGroupMemberInContext(size_t m, FuseId id, std::function<void()> on_fire) override;
  void SignalGroupInContext(size_t node, FuseId id) override;

  // Transport event counters (syscalls, datagrams, retransmits, dedupe
  // suppressions) summed across all live workers, keyed by CounterName.
  // Best-effort: a worker that dies mid-collection contributes nothing.
  std::map<std::string, uint64_t> TransportCounters();
  // Per-machine breakdown of the same counters, indexed by worker. A dead or
  // laggard worker's slot is an empty map, not a poisoned sum.
  std::vector<std::map<std::string, uint64_t>> TransportCountersByMachine();

 protected:
  void CreateNodeInContext(size_t i) override;
  void JoinFirstInContext(size_t i) override;
  void JoinInContext(size_t i, size_t boot, std::function<void(const Status&)> done) override;
  void StartMaintenanceInContext(size_t i) override;
  void LeafExchangeInContext(size_t i) override;
  void RetireNodeInContext(size_t i) override;
  void ReviveNodeInContext(size_t i, size_t boot) override;

 private:
  ProcessDeployment* pd_;  // owned by the base class
  // Join state mirrored controller-side from JoinResult events.
  std::vector<bool> joined_;
};

}  // namespace fuse

#endif  // defined(__linux__)
#endif  // FUSE_RUNTIME_PROCESS_CLUSTER_H_
