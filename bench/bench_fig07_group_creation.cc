// Figure 7: latency of FUSE group creation vs. group size.
//
// 20 groups of each size in {2,4,8,16,32}, members uniformly distributed;
// blocking create (the callback fires once every member replied). The paper
// reports growing percentiles with size (more members => higher chance of a
// slow path) and simulator times about half the cluster times (no TCP
// connection setup). Runs five seeds; the shape checks report the median
// across them.
#include <cstdio>
#include <map>
#include <vector>

#include "bench/bench_util.h"
#include "common/metrics.h"

namespace {

// Returns this seed's latencies by size and adds them to `pooled`.
std::map<int, fuse::Summary> RunCreation(bool cluster_mode, uint64_t seed,
                                         std::map<int, fuse::Summary>& pooled) {
  using namespace fuse;
  using namespace fuse::bench;
  SimCluster cluster(PaperClusterConfig(seed, cluster_mode));
  cluster.Build();
  std::map<int, Summary> by_size;
  size_t created = 0;
  for (const int size : {2, 4, 8, 16, 32}) {
    for (int g = 0; g < 20; ++g) {
      const auto members = cluster.PickLiveNodes(static_cast<size_t>(size));
      Status status;
      double ms = 0;
      CreateGroupTimed(cluster, members[0], members, &status, &ms);
      if (status.ok()) {
        by_size[size].Add(ms);
        pooled[size].Add(ms);
        ++created;
      }
      cluster.sim().RunFor(Duration::Seconds(2));
    }
  }
  // Density/timer-pressure gauges over the groups left alive, published the
  // same way bench_groups_1m reports them.
  size_t total_bytes = 0;
  uint64_t armed = 0;
  for (size_t i = 0; i < cluster.size(); ++i) {
    total_bytes += cluster.node(i).fuse()->ApproxGroupBytes();
    armed += cluster.node(i).fuse()->CountArmedGroupTimers();
  }
  if (created > 0) {
    Metrics& metrics = cluster.env().metrics();
    metrics.SetGauge(Gauge::kBytesPerGroup,
                     static_cast<double>(total_bytes) / static_cast<double>(created));
    metrics.SetGauge(Gauge::kArmedTimersPerGroup,
                     static_cast<double>(armed) / static_cast<double>(created));
    std::printf("  [%s] %s=%.1f %s=%.2f over %zu groups\n",
                cluster_mode ? "cluster" : "simulator", GaugeName(Gauge::kBytesPerGroup),
                metrics.GetGauge(Gauge::kBytesPerGroup), GaugeName(Gauge::kArmedTimersPerGroup),
                metrics.GetGauge(Gauge::kArmedTimersPerGroup), created);
  }
  return by_size;
}

}  // namespace

int main() {
  using namespace fuse;
  using namespace fuse::bench;
  Header("Figure 7: latency of group creation (ms) by group size", "paper section 7.3, Figure 7");

  // Create latency is bimodal (a fast mode and a ~5x slower one), so one
  // seed's p50 over 20 samples can land in either mode: every shape check is
  // the median over these seeds, and each seed's row is shown.
  std::map<int, Summary> cluster_all;
  std::map<int, Summary> sim_all;
  Summary growth;
  Summary cluster_over_sim;
  Summary cluster32;
  std::printf("per seed: %-6s %20s %22s %20s\n", "seed", "size-32/size-2 p50",
              "cluster/sim p50 @8", "cluster p50 @32 ms");
  for (const uint64_t seed : {7001, 7002, 7003, 7004, 7005}) {
    auto cluster_runs = RunCreation(/*cluster_mode=*/true, seed, cluster_all);
    auto sim_runs = RunCreation(/*cluster_mode=*/false, seed, sim_all);
    growth.Add(cluster_runs[32].Median() / cluster_runs[2].Median());
    cluster_over_sim.Add(cluster_runs[8].Median() / sim_runs[8].Median());
    cluster32.Add(cluster_runs[32].Median());
    std::printf("per seed: %-6llu %20.2f %22.2f %20.0f\n", static_cast<unsigned long long>(seed),
                growth.values().back(), cluster_over_sim.values().back(),
                cluster32.values().back());
  }

  std::printf("\ncluster mode (connection setup + messaging overheads), all seeds:\n");
  for (auto& [size, s] : cluster_all) {
    char label[32];
    std::snprintf(label, sizeof(label), "group size %d", size);
    PrintPercentileRow(label, s);
  }
  std::printf("\nsimulator mode, all seeds:\n");
  for (auto& [size, s] : sim_all) {
    char label[32];
    std::snprintf(label, sizeof(label), "group size %d", size);
    PrintPercentileRow(label, s);
  }

  std::printf("\nshape checks (paper expectations; median over %zu seeds):\n", growth.Count());
  std::printf("  creation latency grows with size : size-32 p50 / size-2 p50 = %.2fx (>1)\n",
              growth.Median());
  std::printf("  simulator ~ half of cluster      : cluster p50 / simulator p50 @8 = %.2fx "
              "(paper: ~2x)\n",
              cluster_over_sim.Median());
  std::printf("  cluster size-32 p50              : %.0f ms (paper: ~2000-2500 ms)\n",
              cluster32.Median());
  return 0;
}
