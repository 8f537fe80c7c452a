// Multi-tenant process placement (`procN` ctest label): N nodes per worker
// process, so the worker — not the node — is the machine. These pin the two
// semantics that placement changes: a single-node crash on a shared worker
// is an in-place kill (co-tenants keep running; the process survives), and a
// machine crash is ONE genuine SIGKILL taking down every co-hosted node at
// once. The ProcNParity suite runs the shared scenario schedules
// (fuzz/scenario.h) through the oracle over a 24-nodes-on-4-workers
// placement on both real transports; ProcessClusterMultiNode covers the
// lifecycle edges (TSan's "ProcessCluster" test regex picks up this suite,
// not the parity sweep).
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "fuzz/scenario.h"
#include "runtime/process_cluster.h"

#if defined(__linux__)

namespace fuse {
namespace {

ProcessClusterConfig MultiNodeConfig(int num_nodes, int num_workers, uint64_t seed) {
  ProcessClusterConfig cfg = ProcessClusterConfig::FastProtocol(num_nodes, seed);
  cfg.num_workers = num_workers;
  return cfg;
}

// (scenario, transport) over 24 nodes packed onto 4 workers: 6 co-hosted
// nodes share each epoll loop, fabric listener, and fault-rule replica, so
// inter-machine traffic multiplexes over 4x4 endpoint-shared connections
// while co-hosted traffic short-circuits through local dispatch.
class ProcNParity
    : public ::testing::TestWithParam<std::tuple<ScenarioKind, TransportKind>> {};

TEST_P(ProcNParity, AgreementHoldsUnderMultiTenantPlacement) {
  const ScenarioKind kind = std::get<0>(GetParam());
  const TransportKind transport = std::get<1>(GetParam());
  ProcessClusterConfig cfg = MultiNodeConfig(/*num_nodes=*/24, /*num_workers=*/4, /*seed=*/42);
  cfg.transport = transport;
  ProcessCluster cluster(cfg);
  cluster.Build();
  ASSERT_EQ(cluster.placement().NumMachines(), 4);
  const ScenarioOptions opts = ScenarioOptions::Live(42);
  const FuzzRunResult r = RunAgreementScenario(cluster, kind, opts);
  EXPECT_TRUE(r.ok()) << ScenarioKindName(kind) << " procN: " << r.ToString();
  EXPECT_LE(r.max_detection_latency_us, opts.oracle.bounds.detect_bound.ToMicros())
      << r.ToString();
  EXPECT_GE(r.groups_fired, 1) << "scenario did not exercise the notification path";

  // Per-machine accounting: one slot per worker, empty for a dead worker
  // (kMachineFailure leaves its victim SIGKILLed), live counters elsewhere.
  const std::vector<std::map<std::string, uint64_t>> by_machine =
      cluster.TransportCountersByMachine();
  ASSERT_EQ(by_machine.size(), 4u);
  int live_machines = 0;
  uint64_t total_sends = 0;
  uint64_t total_datagrams = 0;
  for (size_t m = 0; m < by_machine.size(); ++m) {
    if (by_machine[m].empty()) {
      continue;
    }
    ++live_machines;
    SCOPED_TRACE("machine " + std::to_string(m));
    ASSERT_TRUE(by_machine[m].contains("transport_send_syscalls"));
    EXPECT_GT(by_machine[m].at("transport_send_syscalls"), 0u);
    total_sends += by_machine[m].at("transport_send_syscalls");
    total_datagrams += by_machine[m].at("transport_datagrams_sent");
  }
  EXPECT_GE(live_machines, kind == ScenarioKind::kMachineFailure ? 3 : 4);
  EXPECT_GT(total_sends, 0u);
  if (transport == TransportKind::kUdp) {
    EXPECT_GT(total_datagrams, 0u);
  } else {
    EXPECT_EQ(total_datagrams, 0u);
  }
  // The flat view is exactly the per-machine view, summed.
  const std::map<std::string, uint64_t> flat = cluster.TransportCounters();
  ASSERT_TRUE(flat.contains("transport_send_syscalls"));
  EXPECT_GE(flat.at("transport_send_syscalls"), total_sends > 0 ? 1u : 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, ProcNParity,
    ::testing::Combine(::testing::Values(ScenarioKind::kCrashMember,
                                         ScenarioKind::kPartitionHeal,
                                         ScenarioKind::kMachineFailure),
                       ::testing::Values(TransportKind::kTcp, TransportKind::kUdp)),
    [](const ::testing::TestParamInfo<std::tuple<ScenarioKind, TransportKind>>& pinfo) {
      std::string name = ScenarioKindName(std::get<0>(pinfo.param));
      if (std::get<1>(pinfo.param) == TransportKind::kUdp) {
        name += "Udp";
      }
      return name;
    });

// A single-node crash on a shared worker must NOT kill the process: the
// victim quiesces in place (handlers unregistered, fault rules mark it down)
// while its co-tenants keep serving, and a later Restart rejoins it through
// a live bootstrap on the same worker.
TEST(ProcessClusterMultiNode, InPlaceKillKeepsCoTenantsUpThenRestartRejoins) {
  // 8 nodes on 2 workers: worker 0 hosts nodes 0-3, worker 1 hosts 4-7.
  ProcessCluster cluster(MultiNodeConfig(8, 2, /*seed=*/7));
  cluster.Build();

  cluster.Crash(2);
  bool victim_up = true;
  bool victim_joined = true;
  std::vector<bool> cotenant_up(8, false);
  cluster.Run([&] {
    victim_up = cluster.IsUp(2);
    victim_joined = cluster.IsJoined(2);
    for (size_t i = 0; i < 8; ++i) {
      cotenant_up[i] = cluster.IsUp(i);
    }
  });
  EXPECT_FALSE(victim_up);
  EXPECT_FALSE(victim_joined);
  for (size_t i = 0; i < 8; ++i) {
    if (i != 2) {
      EXPECT_TRUE(cotenant_up[i]) << "in-place kill of node 2 took down node " << i;
    }
  }

  cluster.Restart(2);
  bool rejoined = false;
  cluster.Run([&] { rejoined = cluster.IsJoined(2); });
  EXPECT_TRUE(rejoined) << "in-place-restarted node did not rejoin the overlay";
}

// Machine crash is one genuine SIGKILL: every node on the worker dies at
// once, survivors on the other machine detect it, and RestartMachine forks a
// fresh incarnation (new port, re-advertised address map) whose nodes all
// rejoin. Runs on both transports — the UDP leg is the end-to-end version of
// the fabric-level retransmit-retargeting test (address-map churn after a
// restart must redirect traffic to the fresh incarnation's port).
class ProcessClusterMultiNode : public ::testing::TestWithParam<TransportKind> {};

TEST_P(ProcessClusterMultiNode, MachineSigkillThenRestartMachineRejoins) {
  ProcessClusterConfig cfg = MultiNodeConfig(8, 2, /*seed=*/11);
  cfg.transport = GetParam();
  ProcessCluster cluster(cfg);
  cluster.Build();

  cluster.CrashMachine(1);  // one SIGKILL: nodes 4-7 die together
  std::vector<bool> up(8, false);
  cluster.Run([&] {
    for (size_t i = 0; i < 8; ++i) {
      up[i] = cluster.IsUp(i);
    }
  });
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(up[i], cluster.MachineOf(i) == 0)
        << "node " << i << " on machine " << cluster.MachineOf(i);
  }

  cluster.RestartMachine(1);
  std::vector<bool> joined(8, false);
  cluster.Run([&] {
    for (size_t i = 0; i < 8; ++i) {
      joined[i] = cluster.IsJoined(i);
    }
  });
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(joined[i]) << "node " << i << " not joined after machine restart";
  }

  // Both workers are live again and both moved real traffic.
  const auto by_machine = cluster.TransportCountersByMachine();
  ASSERT_EQ(by_machine.size(), 2u);
  for (size_t m = 0; m < by_machine.size(); ++m) {
    ASSERT_FALSE(by_machine[m].empty()) << "machine " << m << " reported no counters";
    EXPECT_GT(by_machine[m].at("transport_send_syscalls"), 0u) << "machine " << m;
  }
}

INSTANTIATE_TEST_SUITE_P(Transports, ProcessClusterMultiNode,
                         ::testing::Values(TransportKind::kTcp, TransportKind::kUdp),
                         [](const ::testing::TestParamInfo<TransportKind>& pinfo) {
                           return std::string(pinfo.param == TransportKind::kUdp ? "Udp" : "Tcp");
                         });

}  // namespace
}  // namespace fuse

#else
// Non-Linux: ProcessCluster needs fork + epoll; keep the binary linkable.
TEST(ProcessClusterMultiNode, SkippedOffLinux) { GTEST_SKIP(); }
#endif  // defined(__linux__)
