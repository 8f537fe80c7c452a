// LiveCluster: the wall-clock deployment — the same ClusterHarness machinery
// as SimCluster (build, crash/restart, churn, fault rules, ring probes) over
// the threaded LiveRuntime backend. Protocol work marshals onto the runtime's
// loop thread; waits are bounded wall-clock polls instead of virtual-time
// event pumping. With this, every fault schedule written against the harness
// (tests/property schedules, scenario definitions) runs unchanged against
// real asynchrony — the paper's live-cluster configuration (section 7).
//
// Its one messaging layer is LiveRuntime's in-memory delivery (per-send
// latency and loss drawn from the seed). Real TCP/UDP sockets are the process
// backend's (runtime/process_cluster.h): each backend has exactly one
// messaging layer, per the paper's "identical code base except for the base
// messaging layer".
#ifndef FUSE_RUNTIME_LIVE_CLUSTER_H_
#define FUSE_RUNTIME_LIVE_CLUSTER_H_

#include <memory>

#include "runtime/cluster.h"
#include "runtime/live_runtime.h"

namespace fuse {

struct LiveClusterConfig {
  int num_nodes = 8;
  // Single seed for the whole deployment; overrides runtime.seed.
  uint64_t seed = 1;
  // In-process message latency / loss of the live messaging layer.
  LiveRuntime::Config runtime;
  SkipNetConfig overlay;
  FuseParams fuse;
  int join_batch = 4;
  HarnessTiming timing;
  // Co-locates this many nodes per machine: one fault domain for
  // CrashMachine (the nodes still share the one in-process messaging layer).
  int nodes_per_machine = 1;

  // Preset with protocol constants scaled from simulated minutes to live
  // milliseconds, so wall-clock scenario runs finish in seconds while
  // exercising the same code paths (pings, timeouts, repair, backoff).
  static LiveClusterConfig FastProtocol(int num_nodes, uint64_t seed);
};

class LiveDeployment;

class LiveCluster : public ClusterHarness {
 public:
  explicit LiveCluster(LiveClusterConfig config);
  ~LiveCluster() override;

  LiveRuntime& runtime();

 private:
  LiveDeployment* live_deploy_;  // owned by the base class
};

}  // namespace fuse

#endif  // FUSE_RUNTIME_LIVE_CLUSTER_H_
