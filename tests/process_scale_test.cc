// Scale leg of the multi-tenant placement work (`procscale` ctest label,
// RUN_SERIAL): 1000 nodes packed onto 16 worker processes — 16 epoll loops
// and 16 fabric listeners, not 1000 processes — driven through the same
// harness, scenario schedules and oracle as every other backend. The protocol
// constants are slowed well below the FastProtocol preset: a thousand
// wall-clock protocol stacks share one box with the controller, so the
// background load (pings, leaf exchanges) must fit the machine while
// failure detection still completes within the widened analytic bounds.
//
// The scenario is kMachineFailure: one SIGKILL takes out a worker hosting
// ~63 nodes at once, every group spanning it must notify each live member
// exactly once, and machine-disjoint groups must stay silent — on both the
// framed-TCP and coalescing-UDP fabrics.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "fuzz/scenario.h"
#include "runtime/process_cluster.h"

#if defined(__linux__)

namespace fuse {
namespace {

constexpr int kNodes = 1000;
constexpr int kWorkers = 16;

ProcessClusterConfig ScaleConfig(TransportKind transport) {
  ProcessClusterConfig cfg = ProcessClusterConfig::FastProtocol(kNodes, /*seed=*/91);
  cfg.num_workers = kWorkers;
  cfg.transport = transport;
  // Slowed protocol constants: with 1000 live stacks the FastProtocol ping
  // rate alone would saturate a small box. Stretch the periods an order of
  // magnitude; the analytic detection bound stretches with them (checked by
  // the widened scenario timing below).
  cfg.overlay.ping_period = Duration::Seconds(2);
  cfg.overlay.ping_timeout = Duration::Seconds(1);
  cfg.overlay.join_timeout = Duration::Seconds(5);
  cfg.overlay.query_timeout = Duration::Seconds(2);
  cfg.overlay.repair_delay = Duration::Millis(500);
  cfg.overlay.leaf_exchange_period = Duration::Seconds(10);
  cfg.fuse.create_timeout = Duration::Seconds(30);
  cfg.fuse.install_timeout = Duration::Seconds(15);
  cfg.fuse.member_repair_timeout = Duration::Seconds(6);
  cfg.fuse.root_repair_timeout = Duration::Seconds(10);
  cfg.fuse.link_liveness_timeout = Duration::Seconds(4);
  cfg.fuse.grace_period = Duration::Seconds(1);
  cfg.fuse.repair_backoff_initial = Duration::Seconds(1);
  cfg.fuse.repair_backoff_cap = Duration::Seconds(4);
  cfg.timing.join_wait = Duration::Minutes(10);
  cfg.timing.settle_round = Duration::Seconds(2);
  cfg.timing.restart_wait = Duration::Minutes(2);
  cfg.join_batch = 8;
  return cfg;
}

ScenarioOptions ScaleOptions(uint64_t seed) {
  ScenarioOptions opts = ScenarioOptions::Live(seed);
  opts.num_groups = 4;  // 2 spanning the victim machine + 2 disjoint controls
  opts.oracle.bounds.settle = Duration::Seconds(5);
  opts.oracle.bounds.create_bound = Duration::Seconds(60);
  opts.oracle.bounds.detect_bound = Duration::Seconds(180);
  opts.oracle.bounds.post_settle = Duration::Seconds(15);
  return opts;
}

void RunScale(TransportKind transport) {
  ProcessCluster cluster(ScaleConfig(transport));
  cluster.Build();
  ASSERT_EQ(cluster.placement().NumMachines(), kWorkers);
  const ScenarioOptions opts = ScaleOptions(91);
  const FuzzRunResult r = RunAgreementScenario(cluster, ScenarioKind::kMachineFailure, opts);
  EXPECT_TRUE(r.ok()) << "MachineFailure at scale: " << r.ToString();
  EXPECT_LE(r.max_detection_latency_us, opts.oracle.bounds.detect_bound.ToMicros())
      << r.ToString();
  EXPECT_GE(r.groups_fired, 1) << "scenario did not exercise the notification path";

  // One counter slot per worker. The SIGKILLed machine is dark for sure;
  // collection is best-effort (bounded), so a heavily loaded survivor may
  // also miss the window — but most must report, with live traffic.
  const std::vector<std::map<std::string, uint64_t>> by_machine =
      cluster.TransportCountersByMachine();
  ASSERT_EQ(by_machine.size(), static_cast<size_t>(kWorkers));
  int live_machines = 0;
  for (const auto& counters : by_machine) {
    if (!counters.empty()) {
      ++live_machines;
      EXPECT_GT(counters.at("transport_send_syscalls"), 0u);
    }
  }
  EXPECT_LE(live_machines, kWorkers - 1);
  EXPECT_GE(live_machines, kWorkers / 2);
}

TEST(ProcScale1000, ParityTcp) { RunScale(TransportKind::kTcp); }

TEST(ProcScale1000, ParityUdp) { RunScale(TransportKind::kUdp); }

}  // namespace
}  // namespace fuse

#else
// Non-Linux: ProcessCluster needs fork + epoll; keep the binary linkable.
TEST(ProcScale1000, SkippedOffLinux) { GTEST_SKIP(); }
#endif  // defined(__linux__)
