// Sim ↔ live parity: the runtime scenarios' fault schedules from
// fuzz/scenario.h — the same schedules property_test.cc runs on the
// discrete-event simulator — executed against the wall-clock LiveCluster
// and graded by the same oracle (fuzz/fuzz_runner.h). This is the paper's
// section 7 claim made enforceable: one scenario definition, one grader, two
// deployments. These run as the `live-parity` ctest label (gated in CI's
// main job and, for the partition/heal schedule's lock discipline, under
// TSan).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <tuple>

#include "fuzz/scenario.h"
#include "runtime/live_cluster.h"

namespace fuse {
namespace {

// Runs `kind` on a built cluster with the wall-clock scenario shape: the
// oracle's verdict, full coverage within the detection bound, and — unless
// churn legally failed a create — a run that exercised the notification path.
void ExpectAgreement(ClusterHarness& cluster, ScenarioKind kind) {
  const ScenarioOptions opts = ScenarioOptions::Live(42);
  const FuzzRunResult r = RunAgreementScenario(cluster, kind, opts);
  EXPECT_TRUE(r.ok()) << ScenarioKindName(kind) << " live: " << r.ToString();
  EXPECT_LE(r.max_detection_latency_us, opts.oracle.bounds.detect_bound.ToMicros())
      << r.ToString();
  if (r.creates_failed == 0) {
    EXPECT_GE(r.groups_fired, 1) << "scenario did not exercise the notification path";
  }
}

// Parameterized over (scenario, transport): the same schedules run on the
// in-process message layer and — on Linux — on the per-host UDP datagram
// fabrics, where a crash is observed as silence + retransmit exhaustion
// rather than an error signal. CI selects the UDP leg by test name (-R Udp).
class LiveParityScenario
    : public ::testing::TestWithParam<std::tuple<ScenarioKind, TransportKind>> {};

TEST_P(LiveParityScenario, AgreementHoldsOverWallClock) {
  const ScenarioKind kind = std::get<0>(GetParam());
  const TransportKind transport = std::get<1>(GetParam());
#if !defined(__linux__)
  if (transport != TransportKind::kInProcess) {
    GTEST_SKIP() << "real transports need the Linux epoll loop";
  }
#endif
  // ChurnDuringCreate draws groups from the stable lower index half, so it
  // needs headroom over max_group_size.
  const int num_nodes = kind == ScenarioKind::kChurnDuringCreate ? 16 : 10;
  LiveClusterConfig cfg = LiveClusterConfig::FastProtocol(num_nodes, /*seed=*/42);
  cfg.transport = transport;
  LiveCluster cluster(cfg);
  cluster.Build();
  ExpectAgreement(cluster, kind);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, LiveParityScenario,
    ::testing::Combine(::testing::Values(ScenarioKind::kCrashMember,
                                         ScenarioKind::kPartitionHeal,
                                         ScenarioKind::kChurnDuringCreate, ScenarioKind::kSignal),
                       ::testing::Values(TransportKind::kInProcess, TransportKind::kUdp)),
    [](const ::testing::TestParamInfo<std::tuple<ScenarioKind, TransportKind>>& pinfo) {
      std::string name = ScenarioKindName(std::get<0>(pinfo.param));
      if (std::get<1>(pinfo.param) == TransportKind::kUdp) {
        name += "Udp";
      }
      return name;
    });

// Machine failure on the wall-clock backend: nodes_per_machine=3 groups the
// 12 nodes into 4 fault domains (on the real transports, co-located nodes
// also share one fabric and one port — the single-process analogue of a
// multi-tenant worker). One machine dies as a unit; every group spanning it
// must notify each live member exactly once, and machine-disjoint groups
// must stay silent. Same schedule as the sim leg (property_test.cc) and the
// multi-tenant process leg (process_multinode_test.cc).
class LiveMachineFailure : public ::testing::TestWithParam<TransportKind> {};

TEST_P(LiveMachineFailure, SpanningGroupsNotifyDisjointGroupsStaySilent) {
  const TransportKind transport = GetParam();
#if !defined(__linux__)
  if (transport != TransportKind::kInProcess) {
    GTEST_SKIP() << "real transports need the Linux epoll loop";
  }
#endif
  LiveClusterConfig cfg = LiveClusterConfig::FastProtocol(12, /*seed=*/42);
  cfg.transport = transport;
  cfg.nodes_per_machine = 3;
  LiveCluster cluster(cfg);
  cluster.Build();
  ExpectAgreement(cluster, ScenarioKind::kMachineFailure);
}

INSTANTIATE_TEST_SUITE_P(Transports, LiveMachineFailure,
                         ::testing::Values(TransportKind::kInProcess, TransportKind::kUdp),
                         [](const ::testing::TestParamInfo<TransportKind>& pinfo) {
                           return std::string(pinfo.param == TransportKind::kUdp ? "Udp"
                                                                                 : "InProcess");
                         });

// Fault-rule parity at the runtime level: partitions applied through the
// same FaultInjector vocabulary the sim fabric consults, exercised against
// the live loop thread (this is the TSan lock-discipline canary for
// LiveRuntime::Send's rule checks).
TEST(LiveClusterFaults, PartitionBlocksAndHealRestores) {
  LiveCluster cluster(LiveClusterConfig::FastProtocol(6, /*seed=*/7));
  cluster.Build();

  // Partition nodes {0,1} away from {2..5} while ping traffic is flowing.
  std::vector<HostId> side{cluster.node(0).host(), cluster.node(1).host()};
  cluster.ApplyFaults([&side](FaultInjector& f) { f.PartitionHosts(side); });

  // Traffic across the boundary must fail; traffic within a side must flow.
  Status cross = Status::Ok();
  Status within = Status::Broken("unset");
  cluster.Run([&] {
    WireMessage m;
    m.to = cluster.node(3).host();
    m.type = msgtype::kTest;
    m.category = MsgCategory::kApp;
    cluster.node(0).transport()->Send(std::move(m), [&cross](const Status& s) { cross = s; });
    WireMessage m2;
    m2.to = cluster.node(1).host();
    m2.type = msgtype::kTest;
    m2.category = MsgCategory::kApp;
    cluster.node(0).transport()->Send(std::move(m2), [&within](const Status& s) { within = s; });
  });
  ASSERT_TRUE(cluster.Await([&] { return !cross.ok() && within.ok(); }, Duration::Seconds(5)))
      << "cross=" << cross.ToString() << " within=" << within.ToString();

  // Heal; cross-boundary traffic must flow again.
  cluster.ApplyFaults([](FaultInjector& f) { f.ClearPartitions(); });
  Status healed = Status::Broken("unset");
  cluster.Run([&] {
    WireMessage m;
    m.to = cluster.node(3).host();
    m.type = msgtype::kTest;
    m.category = MsgCategory::kApp;
    cluster.node(0).transport()->Send(std::move(m), [&healed](const Status& s) { healed = s; });
  });
  EXPECT_TRUE(cluster.Await([&] { return healed.ok(); }, Duration::Seconds(5)))
      << healed.ToString();
}

// Regression (PR 6): instant crash/restart round trip with no down-window.
// The incarnation-aware join path must evict the dead incarnation's stale
// table entries instead of bouncing the join search back to the joiner, so
// the rejoin cannot depend on the survivors' ping timeouts having fired.
TEST(LiveClusterLifecycle, InstantRestartRejoins) {
  LiveCluster cluster(LiveClusterConfig::FastProtocol(6, /*seed=*/11));
  cluster.Build();
  cluster.Crash(2);
  cluster.Restart(2);
  bool joined = false;
  cluster.Run([&] { joined = cluster.IsJoined(2); });
  EXPECT_TRUE(joined) << "instantly-restarted node did not rejoin the overlay";
}

// Regression (PR 5): the sender's ack used to fire Ok at 2x latency even
// when the delivery-time fault re-check dropped the message. With a
// partition applied while the message is in flight, the callback must report
// Broken — the sim fabric's per-attempt semantics (a send across a fault
// never acks Ok).
TEST(LiveClusterFaults, MidFlightPartitionBreaksTheAck) {
  LiveRuntime::Config cfg;
  cfg.seed = 9;
  // Latency floor far above the time it takes to apply the partition below,
  // so "partition lands while in flight" is deterministic, not a race.
  cfg.min_latency = Duration::Millis(150);
  cfg.max_latency = Duration::Millis(200);
  LiveRuntime runtime(cfg);
  LiveTransport* a = runtime.CreateHost();
  LiveTransport* b = runtime.CreateHost();

  std::atomic<bool> delivered{false};
  std::atomic<bool> ack_seen{false};
  Status acked = Status::Ok();
  b->RegisterHandler(msgtype::kTest, [&delivered](const WireMessage&) { delivered = true; });
  WireMessage m;
  m.to = b->local_host();
  m.type = msgtype::kTest;
  m.category = MsgCategory::kApp;
  a->Send(std::move(m), [&acked, &ack_seen](const Status& s) {
    acked = s;
    ack_seen = true;
  });
  // Partition {a} away while the message is still in its >=150 ms flight.
  const HostId ha = a->local_host();
  runtime.ApplyFaults([ha](FaultInjector& f) { f.PartitionHosts({ha}); });

  for (int spin = 0; spin < 500 && !ack_seen.load(); ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  runtime.Stop();  // quiesce before reading `acked`
  ASSERT_TRUE(ack_seen.load());
  EXPECT_FALSE(delivered.load()) << "delivery-time re-check must drop the message";
  EXPECT_FALSE(acked.ok()) << "ack must report the delivery-time drop, got "
                           << acked.ToString();
}

}  // namespace
}  // namespace fuse
