// Group-scale benchmark: drive up to one million concurrent FUSE groups
// through GroupService on the classic simulator and measure where the cost
// goes with per-ping liveness work O(1) per link (incremental link digests,
// coalesced group timers):
//
//   * create throughput through the admission-windowed pipeline,
//   * steady-state events per wall second with every group idle,
//   * memory density (approx bytes of group state per group) and timer
//     pressure (armed FUSE-layer timers per group — O(nodes), not
//     O(groups)),
//   * signal -> notification latency over a sampled group subset, with
//     group churn (signal + replacement create) in the background. The
//     samples are bimodal — signaler and watcher on one machine (local
//     dispatch) or on two (a network hop) — and which groups get sampled
//     follows the FUSE IDs, so one p50 over both would flip between the
//     modes whenever the RNG stream moves. The report splits them: the
//     same-machine fraction plus each mode's p50, and the overall p99.9.
//
// Usage:
//   bench_groups_1m                        # 1M groups, 16 nodes
//   bench_groups_1m --groups 200000
//   bench_groups_1m --smoke                # reduced CI gate (groups1m label)
//   bench_groups_1m --json out.json
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/scale_bench.h"
#include "common/metrics.h"
#include "service/group_service.h"

namespace {

using namespace fuse;
using namespace fuse::bench;

struct GroupsOptions {
  long groups = 1000000;
  int nodes = 16;
  int size = 2;  // members per group (root included)
  long notify_samples = 10000;
};

struct GroupsResult {
  long groups_requested = 0;
  long groups_created = 0;
  int nodes = 0;
  int size = 0;
  double build_wall_s = 0;
  double create_wall_s = 0;
  double creates_per_wall_s = 0;
  uint64_t steady_events = 0;
  double events_per_wall_s = 0;
  size_t pending_timers = 0;
  double bytes_per_group = 0;
  uint64_t armed_group_timers = 0;
  double armed_timers_per_group = 0;
  long notify_samples = 0;
  long notify_delivered = 0;
  double notify_same_machine_frac = 0;
  double notify_same_machine_p50_ms = 0;
  double notify_cross_machine_p50_ms = 0;
  double notify_p999_ms = 0;
};

// Deterministic member spread: group g is rooted at g % nodes and spans the
// next size-1 nodes at a stride that varies with g, so every node pair
// carries load without RNG churn in the driver.
std::vector<size_t> MembersFor(long g, int nodes, int size) {
  std::vector<size_t> members;
  members.reserve(static_cast<size_t>(size));
  const size_t root = static_cast<size_t>(g % nodes);
  members.push_back(root);
  const size_t stride = 1 + static_cast<size_t>((g / nodes) % (nodes - 1));
  for (int k = 1; k < size; ++k) {
    members.push_back((root + k * stride) % static_cast<size_t>(nodes));
  }
  return members;
}

GroupsResult RunGroups(const GroupsOptions& opt) {
  GroupsResult res;
  res.groups_requested = opt.groups;
  res.nodes = opt.nodes;
  res.size = opt.size;

  SimCluster cluster(ClusterConfig::LargeScale(opt.nodes, /*seed=*/99));

  auto t0 = std::chrono::steady_clock::now();
  cluster.Build();
  res.build_wall_s = WallSecondsSince(t0);

  GroupServiceOptions sopts;
  sopts.max_inflight_creates = 1024;
  GroupService svc(cluster, sopts);

  t0 = std::chrono::steady_clock::now();
  for (long g = 0; g < opt.groups; ++g) {
    const std::vector<size_t> members = MembersFor(g, opt.nodes, opt.size);
    svc.Create(members[0], members);
    // Keep the queue from buffering a million closures: admit in waves.
    if (svc.NumPendingCreates() >= 4096) {
      svc.Drain(Duration::Minutes(10));
    }
  }
  svc.Drain(Duration::Minutes(30));
  res.create_wall_s = WallSecondsSince(t0);
  res.groups_created = static_cast<long>(svc.counters().creates_ok);
  res.creates_per_wall_s =
      res.create_wall_s > 0 ? static_cast<double>(res.groups_created) / res.create_wall_s : 0;

  // Steady state: every group idle, liveness riding on overlay pings only.
  t0 = std::chrono::steady_clock::now();
  const uint64_t events0 = cluster.sim().queue().ExecutedCount();
  cluster.AdvanceFor(Duration::Seconds(60));
  const double steady_wall = WallSecondsSince(t0);
  res.steady_events = cluster.sim().queue().ExecutedCount() - events0;
  res.events_per_wall_s =
      steady_wall > 0 ? static_cast<double>(res.steady_events) / steady_wall : 0;
  res.pending_timers = cluster.sim().queue().GetStats().pending;

  // Density and timer-pressure gauges, published through the metrics sink so
  // the report and the JSON read from one place.
  size_t total_bytes = 0;
  uint64_t armed = 0;
  size_t live_groups = 0;
  cluster.Run([&] {
    for (size_t i = 0; i < cluster.size(); ++i) {
      total_bytes += cluster.node(i).fuse()->ApproxGroupBytes();
      armed += cluster.node(i).fuse()->CountArmedGroupTimers();
    }
  });
  live_groups = svc.NumLive();
  total_bytes += svc.ApproxServiceBytes();
  res.bytes_per_group =
      live_groups > 0 ? static_cast<double>(total_bytes) / static_cast<double>(live_groups) : 0;
  res.armed_group_timers = armed;
  res.armed_timers_per_group =
      live_groups > 0 ? static_cast<double>(armed) / static_cast<double>(live_groups) : 0;
  cluster.env().metrics().SetGauge(Gauge::kBytesPerGroup, res.bytes_per_group);
  cluster.env().metrics().SetGauge(Gauge::kArmedTimersPerGroup, res.armed_timers_per_group);

  // Signal -> notification latency over a sampled subset, with churn: each
  // signaled group is immediately replaced by a fresh create, so the service
  // sees arrival + departure, not just teardown.
  const long samples = std::min<long>(opt.notify_samples, res.groups_created);
  std::vector<FuseId> sampled;
  sampled.reserve(static_cast<size_t>(samples));
  {
    const size_t stride =
        samples > 0 ? std::max<size_t>(1, svc.NumLive() / static_cast<size_t>(samples)) : 1;
    size_t i = 0;
    svc.ForEachLive([&](FuseId id, const GroupService::Record&) {
      if (i++ % stride == 0 && sampled.size() < static_cast<size_t>(samples)) {
        sampled.push_back(id);
      }
    });
  }
  auto latency_ms = std::make_shared<Summary>();
  auto same_ms = std::make_shared<Summary>();
  auto cross_ms = std::make_shared<Summary>();
  auto delivered = std::make_shared<long>(0);
  auto starts = std::make_shared<std::vector<TimePoint>>(sampled.size());
  long same_machine = 0;
  for (size_t i = 0; i < sampled.size(); ++i) {
    const GroupService::Record* rec = svc.FindLive(sampled[i]);
    const size_t watcher = rec->members.size() > 1 ? rec->members[1] : rec->root;
    // The root signals (below), so this is the sample's mode.
    const bool same = cluster.MachineOf(rec->root) == cluster.MachineOf(watcher);
    same_machine += same ? 1 : 0;
    std::shared_ptr<Summary> mode = same ? same_ms : cross_ms;
    svc.Watch(watcher, sampled[i], [&cluster, latency_ms, mode, delivered, starts, i](FuseId) {
      const double ms = (cluster.env().Now() - (*starts)[i]).ToMillisF();
      latency_ms->Add(ms);
      mode->Add(ms);
      ++*delivered;
    });
  }
  long churn_seq = 0;
  for (size_t i = 0; i < sampled.size(); ++i) {
    const GroupService::Record* rec = svc.FindLive(sampled[i]);
    const size_t signaler = rec != nullptr ? rec->root : 0;
    (*starts)[i] = cluster.env().Now();
    svc.Signal(signaler, sampled[i]);
    const std::vector<size_t> churn_members = MembersFor(churn_seq, opt.nodes, opt.size);
    svc.Create(churn_members[0], churn_members);
    ++churn_seq;
    if ((i + 1) % 1024 == 0) {
      svc.Drain(Duration::Minutes(5));
    }
  }
  svc.Drain(Duration::Minutes(10));
  cluster.Await([&] { return *delivered >= static_cast<long>(sampled.size()); },
                Duration::Minutes(10));
  res.notify_samples = static_cast<long>(sampled.size());
  res.notify_delivered = *delivered;
  res.notify_same_machine_frac =
      sampled.empty() ? 0 : static_cast<double>(same_machine) / static_cast<double>(sampled.size());
  res.notify_same_machine_p50_ms = same_ms->Count() > 0 ? same_ms->Percentile(50) : 0;
  res.notify_cross_machine_p50_ms = cross_ms->Count() > 0 ? cross_ms->Percentile(50) : 0;
  res.notify_p999_ms = latency_ms->Count() > 0 ? latency_ms->Percentile(99.9) : 0;
  return res;
}

void PrintGroupsResult(const GroupsResult& r) {
  std::printf("\n--- %ld groups, %d nodes, size %d ---\n", r.groups_requested, r.nodes,
              r.size);
  std::printf("  build wall time          : %10.2f s\n", r.build_wall_s);
  std::printf("  groups created           : %10ld of %ld\n", r.groups_created,
              r.groups_requested);
  std::printf("  create throughput        : %10.0f creates / wall s\n", r.creates_per_wall_s);
  std::printf("  steady-state sim events  : %10llu in 60 sim-s\n",
              static_cast<unsigned long long>(r.steady_events));
  std::printf("  events / wall second     : %10.0f\n", r.events_per_wall_s);
  std::printf("  pending timers at rest   : %10zu\n", r.pending_timers);
  std::printf("  bytes / group (approx)   : %10.1f\n", r.bytes_per_group);
  std::printf("  armed FUSE timers        : %10llu  (%.4f per group)\n",
              static_cast<unsigned long long>(r.armed_group_timers), r.armed_timers_per_group);
  std::printf("  notifications            : %10ld of %ld sampled\n", r.notify_delivered,
              r.notify_samples);
  std::printf("  same-machine samples     : %10.3f\n", r.notify_same_machine_frac);
  std::printf("  notify latency           : p50 = %.2f ms same machine, %.2f ms cross machine;"
              " p99.9 = %.2f ms\n",
              r.notify_same_machine_p50_ms, r.notify_cross_machine_p50_ms, r.notify_p999_ms);
}

void WriteGroupsJson(const std::string& path, const GroupsResult& r) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"groups_1m\",\n"
               "  \"groups\": %ld, \"nodes\": %d, \"size\": %d,\n"
               "  \"build_wall_s\": %.3f, \"create_wall_s\": %.3f,\n"
               "  \"creates_per_wall_s\": %.0f,\n"
               "  \"steady_events\": %llu, \"events_per_wall_s\": %.0f,\n"
               "  \"pending_timers\": %zu,\n"
               "  \"bytes_per_group\": %.1f, \"armed_group_timers\": %llu,\n"
               "  \"notify_samples\": %ld, \"notify_delivered\": %ld,\n"
               "  \"notify_same_machine_frac\": %.3f,\n"
               "  \"notify_same_machine_p50_ms\": %.2f, \"notify_cross_machine_p50_ms\": %.2f,\n"
               "  \"notify_p999_ms\": %.2f\n}\n",
               r.groups_created, r.nodes, r.size, r.build_wall_s,
               r.create_wall_s, r.creates_per_wall_s,
               static_cast<unsigned long long>(r.steady_events), r.events_per_wall_s,
               r.pending_timers, r.bytes_per_group,
               static_cast<unsigned long long>(r.armed_group_timers), r.notify_samples,
               r.notify_delivered, r.notify_same_machine_frac, r.notify_same_machine_p50_ms,
               r.notify_cross_machine_p50_ms, r.notify_p999_ms);
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  GroupsOptions opt;
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--groups") == 0 && i + 1 < argc) {
      opt.groups = std::atol(argv[++i]);
    } else if (std::strcmp(argv[i], "--nodes") == 0 && i + 1 < argc) {
      opt.nodes = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--size") == 0 && i + 1 < argc) {
      opt.size = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "unknown arg: %s\n", argv[i]);
      return 2;
    }
  }

  Header("Group scale: 1M concurrent groups through GroupService",
         "ROADMAP 'Millions of live FUSE groups'; incremental link digests + coalesced timers");

  if (smoke) {
    opt.groups = 20000;
    opt.notify_samples = 2000;
  }
  const GroupsResult r = RunGroups(opt);
  PrintGroupsResult(r);
  if (!json_path.empty()) {
    WriteGroupsJson(json_path, r);
  }
  if (r.groups_created < r.groups_requested || r.notify_delivered < r.notify_samples) {
    std::fprintf(stderr, "FAILED: creates %ld/%ld, notifications %ld/%ld\n", r.groups_created,
                 r.groups_requested, r.notify_delivered, r.notify_samples);
    return 1;
  }
  return 0;
}
