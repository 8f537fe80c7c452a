// Helpers shared by the two simulator workloads: engine probes that work on
// both simulator backends, message-category snapshots, and the per-layer
// figures both report the same way.
#ifndef PERFBENCH_SIM_COMMON_H_
#define PERFBENCH_SIM_COMMON_H_

#include <array>
#include <cstdint>

#include "bench.h"
#include "common/metrics.h"
#include "probe.h"
#include "runtime/sharded_sim_cluster.h"
#include "runtime/sim_cluster.h"

namespace perfbench {

struct EngineStats {
  uint64_t executed = 0;
  uint64_t scheduled = 0;
  uint64_t cancelled = 0;
  size_t pending = 0;
};

inline EngineStats ReadEngine(fuse::ClusterHarness& c, bool sharded) {
  const fuse::EventQueue::Stats q =
      sharded ? static_cast<fuse::ShardedSimCluster&>(c).sim().AggregateQueueStats()
              : static_cast<fuse::SimCluster&>(c).sim().queue().GetStats();
  EngineStats s;
  s.executed = sharded ? static_cast<fuse::ShardedSimCluster&>(c).sim().TotalExecuted()
                       : q.executed;
  s.scheduled = q.scheduled;
  s.cancelled = q.cancelled;
  s.pending = q.pending;
  return s;
}

struct MsgSnap {
  std::array<uint64_t, static_cast<size_t>(fuse::MsgCategory::kCount)> n{};
  uint64_t total = 0;

  uint64_t operator[](fuse::MsgCategory c) const { return n[static_cast<size_t>(c)]; }
  MsgSnap operator-(const MsgSnap& o) const {
    MsgSnap d;
    for (size_t i = 0; i < n.size(); ++i) {
      d.n[i] = n[i] - o.n[i];
    }
    d.total = total - o.total;
    return d;
  }
};

// Message counts by category, read at a span boundary.
inline MsgSnap ReadMessages(fuse::ClusterHarness& c) {
  ScopedSpan span("transport.Counters");
  fuse::Metrics& m = c.env().metrics();
  MsgSnap s;
  for (size_t i = 0; i < s.n.size(); ++i) {
    s.n[i] = m.MessageCount(static_cast<fuse::MsgCategory>(i));
  }
  s.total = m.TotalMessages();
  Tracer::Get().Counter("messages_total", static_cast<double>(s.total));
  return s;
}

inline uint64_t RepairMsgs(const MsgSnap& d) {
  using fuse::MsgCategory;
  return d[MsgCategory::kFuseNeedRepair] + d[MsgCategory::kFuseRepair] +
         d[MsgCategory::kFuseReconcile];
}

inline uint64_t NotifyMsgs(const MsgSnap& d) {
  using fuse::MsgCategory;
  return d[MsgCategory::kFuseSoftNotification] + d[MsgCategory::kFuseHardNotification];
}

inline uint64_t CreateMsgs(const MsgSnap& d) {
  using fuse::MsgCategory;
  return d[MsgCategory::kFuseCreate] + d[MsgCategory::kFuseInstallChecking];
}

// FUSE-layer state of every live in-process node: approximate group bytes
// and armed FUSE timers.
struct FuseState {
  double group_bytes = 0;
  double armed_timers = 0;
};

inline FuseState ReadFuseState(Probe& p) {
  ScopedSpan span("fuse.ReadState");
  FuseState s;
  fuse::ClusterHarness& c = p.cluster();
  c.Run([&] {
    for (size_t i = 0; i < c.size(); ++i) {
      if (c.IsUp(i)) {
        s.group_bytes += static_cast<double>(c.node(i).fuse()->ApproxGroupBytes());
        s.armed_timers += static_cast<double>(c.node(i).fuse()->CountArmedGroupTimers());
      }
    }
  });
  return s;
}

}  // namespace perfbench

#endif  // PERFBENCH_SIM_COMMON_H_
