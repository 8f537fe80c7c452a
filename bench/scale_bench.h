// Shared machinery for the scaling benchmarks (bench_scale_10k,
// bench_scale_100k): build a large cluster on either simulator backend
// (classic single-threaded, or sharded parallel via --shards/--threads),
// measure steady-state event throughput and timer pressure, and optionally
// run the Figure 9 crash-notification experiment at scale.
//
// Everything below is written against the ClusterHarness surface plus two
// narrow backend probes (executed-event count and queue stats), so the same
// measurement loop produces comparable numbers for both engines.
#ifndef FUSE_BENCH_SCALE_BENCH_H_
#define FUSE_BENCH_SCALE_BENCH_H_

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "runtime/sharded_sim_cluster.h"
#include "runtime/sim_cluster.h"

namespace fuse {
namespace bench {

inline double WallSecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

struct ScaleOptions {
  int shards = 0;        // 0 = classic single-threaded backend
  int threads = 1;       // sharded backend worker count
  bool with_groups = true;
};

struct ScaleResult {
  int nodes = 0;
  int shards = 0;
  int threads = 0;
  double build_wall_s = 0;
  double avg_neighbors = 0;
  uint64_t steady_events = 0;
  double steady_events_per_wall_s = 0;
  double steady_msgs_per_sim_s = 0;
  size_t pending_timers = 0;
  uint64_t timers_scheduled = 0;
  uint64_t timers_cancelled = 0;
  size_t wheel_live[3] = {0, 0, 0};  // live entries per timer-wheel level
  int64_t lookahead_us = 0;  // sharded backend only
  int groups = 0;
  int expected_notifications = 0;
  int delivered_notifications = 0;
  double notify_p50_min = 0;
  double notify_max_min = 0;
};

// The two backend probes the harness surface does not carry.
struct ScaleProbes {
  std::function<uint64_t()> executed;
  std::function<EventQueue::Stats()> queue_stats;
};

inline ScaleProbes ProbesFor(ClusterHarness& cluster, const ScaleOptions& opt) {
  ScaleProbes p;
  if (opt.shards > 0) {
    auto& sharded = static_cast<ShardedSimCluster&>(cluster);
    p.executed = [&sharded] { return sharded.sim().TotalExecuted(); };
    p.queue_stats = [&sharded] { return sharded.sim().AggregateQueueStats(); };
  } else {
    auto& classic = static_cast<SimCluster&>(cluster);
    p.executed = [&classic] { return classic.sim().queue().ExecutedCount(); };
    p.queue_stats = [&classic] { return classic.sim().queue().GetStats(); };
  }
  return p;
}

inline ScaleResult RunScale(int n, const ScaleOptions& opt) {
  ScaleResult res;
  res.nodes = n;
  res.shards = opt.shards;
  res.threads = opt.shards > 0 ? opt.threads : 1;

  ClusterConfig cfg = ClusterConfig::LargeScale(n, /*seed=*/77);
  cfg.num_shards = opt.shards;
  cfg.threads = opt.threads;
  const std::unique_ptr<ClusterHarness> cluster_ptr = MakeSimCluster(cfg);
  ClusterHarness& cluster = *cluster_ptr;
  const ScaleProbes probes = ProbesFor(cluster, opt);

  const auto t0 = std::chrono::steady_clock::now();
  cluster.Build();
  res.build_wall_s = WallSecondsSince(t0);
  res.avg_neighbors = cluster.AvgDistinctNeighbors();
  if (opt.shards > 0) {
    res.lookahead_us = static_cast<ShardedSimCluster&>(cluster).sim().lookahead().ToMicros();
  }

  // Steady state: 60 simulated seconds of full-mesh liveness pinging.
  const auto t1 = std::chrono::steady_clock::now();
  const uint64_t events0 = probes.executed();
  const uint64_t msgs0 = cluster.env().metrics().TotalMessages();
  cluster.AdvanceFor(Duration::Seconds(60));
  const double steady_wall = WallSecondsSince(t1);
  res.steady_events = probes.executed() - events0;
  res.steady_events_per_wall_s =
      steady_wall > 0 ? static_cast<double>(res.steady_events) / steady_wall : 0;
  res.steady_msgs_per_sim_s =
      static_cast<double>(cluster.env().metrics().TotalMessages() - msgs0) / 60.0;
  const EventQueue::Stats qs = probes.queue_stats();
  res.pending_timers = qs.pending;
  res.timers_scheduled = qs.scheduled;
  res.timers_cancelled = qs.cancelled;
  for (int w = 0; w < 3; ++w) {
    res.wheel_live[w] = qs.wheel_live[w];
  }

  if (!opt.with_groups) {
    return res;
  }

  // Figure 9 at scale: groups of 5, one "machine" (10 co-located virtual
  // nodes) dies, survivors of affected groups must hear about it.
  struct GroupInfo {
    FuseId id;
    std::vector<size_t> members;
  };
  const int num_groups = std::min(400, n / 5);
  std::vector<GroupInfo> groups;
  for (int g = 0; g < num_groups; ++g) {
    const auto members = cluster.PickLiveNodes(5);
    struct CreateState {
      bool done = false;
      Status status;
      FuseId id;
    };
    auto st = std::make_shared<CreateState>();
    cluster.Run([&] {
      cluster.CreateGroupInContext(members[0], cluster.RefsOf(members),
                                   [st](const Status& s, FuseId id) {
                                     st->status = s;
                                     st->id = id;
                                     st->done = true;
                                   });
    });
    cluster.Await([st] { return st->done; }, Duration::Minutes(3));
    if (st->done && st->status.ok()) {
      groups.push_back({st->id, members});
    }
  }
  res.groups = static_cast<int>(groups.size());
  cluster.AdvanceFor(Duration::Minutes(2));  // settle

  const size_t machine_first = static_cast<size_t>(n) / 2;  // 10 co-located nodes
  const size_t machine_last = machine_first + 10;
  auto latency_min = std::make_shared<Summary>();
  auto delivered = std::make_shared<int>(0);
  const TimePoint t_crash = cluster.env().Now();
  for (const auto& g : groups) {
    bool affected = false;
    for (size_t m : g.members) {
      affected = affected || (m >= machine_first && m < machine_last);
    }
    if (!affected) {
      continue;
    }
    for (size_t m : g.members) {
      if (m >= machine_first && m < machine_last) {
        continue;  // will be dead
      }
      ++res.expected_notifications;
      cluster.Run([&] {
        cluster.WatchGroupMemberInContext(
            m, g.id, [&cluster, latency_min, delivered, t_crash] {
              latency_min->Add((cluster.env().Now() - t_crash).ToSecondsF() / 60.0);
              ++*delivered;
            });
      });
    }
  }
  for (size_t m = machine_first; m < machine_last; ++m) {
    cluster.Crash(m);
  }
  cluster.AdvanceFor(Duration::Minutes(10));
  res.delivered_notifications = *delivered;
  res.notify_p50_min = latency_min->Count() > 0 ? latency_min->Median() : 0;
  res.notify_max_min = latency_min->Count() > 0 ? latency_min->Max() : 0;
  return res;
}

inline void PrintScaleResult(const ScaleResult& r, bool with_groups) {
  std::printf("\n--- %d nodes", r.nodes);
  if (r.shards > 0) {
    std::printf(" (%d shards, %d threads)", r.shards, r.threads);
  }
  std::printf(" ---\n");
  std::printf("  build wall time          : %8.2f s\n", r.build_wall_s);
  std::printf("  avg distinct neighbors   : %8.1f\n", r.avg_neighbors);
  std::printf("  steady-state sim events  : %8llu in 60 sim-s\n",
              static_cast<unsigned long long>(r.steady_events));
  std::printf("  events / wall second     : %8.0f\n", r.steady_events_per_wall_s);
  std::printf("  messages / sim second    : %8.0f\n", r.steady_msgs_per_sim_s);
  std::printf("  pending timers at rest   : %8zu\n", r.pending_timers);
  std::printf("  timers scheduled (total) : %8llu  (cancelled %llu)\n",
              static_cast<unsigned long long>(r.timers_scheduled),
              static_cast<unsigned long long>(r.timers_cancelled));
  std::printf("  wheel occupancy (L0/1/2) : %zu / %zu / %zu\n", r.wheel_live[0], r.wheel_live[1],
              r.wheel_live[2]);
  if (r.shards > 0) {
    std::printf("  conservative lookahead   : %8lld us\n",
                static_cast<long long>(r.lookahead_us));
  }
  if (with_groups) {
    std::printf("  groups created           : %8d\n", r.groups);
    std::printf("  crash notifications      : %d of %d delivered\n", r.delivered_notifications,
                r.expected_notifications);
    std::printf("  notification latency     : p50 = %.2f min, max = %.2f min\n", r.notify_p50_min,
                r.notify_max_min);
  }
}

inline void WriteScaleJson(const std::string& path, const std::vector<ScaleResult>& results,
                           bool with_groups) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"scale\",\n  \"results\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const ScaleResult& r = results[i];
    std::fprintf(f,
                 "    {\"nodes\": %d, \"shards\": %d, \"threads\": %d,\n"
                 "     \"build_wall_s\": %.3f, \"avg_neighbors\": %.2f,\n"
                 "     \"steady_events\": %llu, \"events_per_wall_s\": %.0f,\n"
                 "     \"msgs_per_sim_s\": %.1f, \"pending_timers\": %zu,\n"
                 "     \"timers_scheduled\": %llu, \"timers_cancelled\": %llu",
                 r.nodes, r.shards, r.threads, r.build_wall_s,
                 r.avg_neighbors, static_cast<unsigned long long>(r.steady_events),
                 r.steady_events_per_wall_s, r.steady_msgs_per_sim_s, r.pending_timers,
                 static_cast<unsigned long long>(r.timers_scheduled),
                 static_cast<unsigned long long>(r.timers_cancelled));
    if (with_groups) {
      std::fprintf(f,
                   ",\n     \"groups\": %d, \"expected_notifications\": %d,\n"
                   "     \"delivered_notifications\": %d, \"notify_p50_min\": %.3f,\n"
                   "     \"notify_max_min\": %.3f",
                   r.groups, r.expected_notifications, r.delivered_notifications,
                   r.notify_p50_min, r.notify_max_min);
    }
    std::fprintf(f, "}%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace bench
}  // namespace fuse

#endif  // FUSE_BENCH_SCALE_BENCH_H_
