// Property-based tests (parameterized sweeps) of the paper's core guarantee
// and of structural invariants.
//
// The FUSE property (sections 1/3): for ANY fault schedule, once any member
// observes a failure of a group, every live member of that group hears
// exactly one notification within the analytic bound — and groups none of
// whose members/paths failed are never notified spuriously. The agreement
// suites grade it with the one oracle (fuzz/fuzz_runner.h).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <tuple>

#include "fuzz/scenario.h"
#include "overlay/routing_table.h"
#include "runtime/sim_cluster.h"

namespace fuse {
namespace {

// ---------------------------------------------------------------------------
// FUSE one-way agreement under the runtime scenarios' fault schedules
// (fuzz/scenario.h), graded by the fuzzer's oracle. The same schedules run
// wall-clock in live_parity_test.cc and across OS processes in
// process_parity_test.cc / process_multinode_test.cc.
// ---------------------------------------------------------------------------

// This suite's name for kChurnDuringCreate (the nightly matrix selects it).
std::string KindName(ScenarioKind k) {
  return k == ScenarioKind::kChurnDuringCreate ? "ChurnCreate" : ScenarioKindName(k);
}

// The nightly scenario matrix sets FUSE_PROPERTY_LOSS_PCT (0 / 1 / 5) to run
// the same schedules over a lossy fabric; unset means a clean network.
double PerLinkLossFromEnv() {
  const char* pct = std::getenv("FUSE_PROPERTY_LOSS_PCT");
  return pct == nullptr ? 0.0 : std::atof(pct) / 100.0;
}

// Runs `kind` on a built 36-node sim cluster and checks the oracle's verdict:
// agreement held, full coverage within the detection bound, and — on a clean
// network — the run exercised the notification path.
void ExpectAgreement(const ClusterConfig& cfg, ScenarioKind kind, uint64_t seed) {
  // Loss is applied to the built overlay (as in the paper's Fig. 11/12 route
  // loss experiments), not during construction: multi-hop joins under 5%
  // per-link loss would make Build itself flaky, which is not the property
  // under test.
  const double loss = PerLinkLossFromEnv();
  SimCluster cluster(cfg);
  cluster.Build();
  cluster.net().SetPerLinkLossRate(loss);
  ScenarioOptions opts;
  opts.seed = seed;
  opts.oracle.adverse_network = loss > 0.0;
  const FuzzRunResult r = RunAgreementScenario(cluster, kind, opts);
  EXPECT_TRUE(r.ok()) << KindName(kind) << " seed " << seed << ": " << r.ToString();
  EXPECT_LE(r.max_detection_latency_us, opts.oracle.bounds.detect_bound.ToMicros())
      << r.ToString();
  if (loss == 0.0 && kind != ScenarioKind::kCrashBystander) {
    EXPECT_GE(r.groups_fired, 1) << "vacuous run: " << r.ToString();
  }
}

class FuseAgreementProperty
    : public ::testing::TestWithParam<std::tuple<uint64_t, ScenarioKind>> {};

TEST_P(FuseAgreementProperty, OneWayAgreementHolds) {
  const auto [seed, kind] = GetParam();
  ClusterConfig cfg;
  cfg.num_nodes = 36;
  cfg.seed = seed;
  cfg.topology.num_as = 60;
  cfg.cost = CostModel::Simulator();
  ExpectAgreement(cfg, kind, seed);
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, FuseAgreementProperty,
    ::testing::Combine(::testing::Values(1001, 1002, 1003, 1004, 1005),
                       ::testing::Values(ScenarioKind::kCrashMember, ScenarioKind::kCrashBystander,
                                         ScenarioKind::kSignal, ScenarioKind::kPartition,
                                         ScenarioKind::kPartitionHeal,
                                         ScenarioKind::kChurnDuringCreate, ScenarioKind::kMixed)),
    [](const ::testing::TestParamInfo<std::tuple<uint64_t, ScenarioKind>>& param_info) {
      return KindName(std::get<1>(param_info.param)) + "_seed" +
             std::to_string(std::get<0>(param_info.param));
    });

// Machine failure under co-located placement (the paper's 400-nodes-on-40-
// machines setup): 9 machines of 4 co-located nodes.
class MachineFailureProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MachineFailureProperty, SpanningGroupsNotifyDisjointGroupsStaySilent) {
  const uint64_t seed = GetParam();
  ClusterConfig cfg;
  cfg.num_nodes = 36;
  cfg.hosts_per_machine = 4;
  cfg.seed = seed;
  cfg.topology.num_as = 60;
  cfg.cost = CostModel::Simulator();
  ExpectAgreement(cfg, ScenarioKind::kMachineFailure, seed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MachineFailureProperty,
                         ::testing::Values(11u, 12u, 13u, 14u, 15u));

// ---------------------------------------------------------------------------
// Overlay routing invariants across seeds and sizes.
// ---------------------------------------------------------------------------

class OverlayRoutingProperty
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(OverlayRoutingProperty, RingIsPerfectAndRoutingTerminatesExactly) {
  const auto [n, seed] = GetParam();
  ClusterConfig cfg;
  cfg.num_nodes = n;
  cfg.seed = seed;
  cfg.topology.num_as = 60;
  cfg.cost = CostModel::Simulator();
  SimCluster cluster(cfg);
  cluster.Build();
  EXPECT_EQ(cluster.CountRingViolations(), 0);

  int delivered = 0;
  int max_hops = 0;
  for (size_t i = 0; i < cluster.size(); ++i) {
    cluster.node(i).overlay()->SetRoutedHandler(11, [&](SkipNetNode::RoutedUpcall& u) {
      if (u.at_dest) {
        ++delivered;
        max_hops = std::max(max_hops, u.hop_index);
      }
      return false;
    });
  }
  const int kTrials = 25;
  for (int t = 0; t < kTrials; ++t) {
    const auto pick = cluster.PickLiveNodes(2);
    cluster.node(pick[0]).overlay()->RouteByName(cluster.RefOf(pick[1]).name, 11, {},
                                                 MsgCategory::kApp);
  }
  cluster.sim().RunFor(Duration::Minutes(1));
  EXPECT_EQ(delivered, kTrials);
  // Greedy clockwise progress never loops and stays far below the hop cap.
  EXPECT_LT(max_hops, 40);
}

INSTANTIATE_TEST_SUITE_P(Sizes, OverlayRoutingProperty,
                         ::testing::Combine(::testing::Values(16, 48, 96),
                                            ::testing::Values(21u, 22u, 23u)),
                         [](const ::testing::TestParamInfo<std::tuple<int, uint64_t>>& param_info) {
                           return "n" + std::to_string(std::get<0>(param_info.param)) + "_seed" +
                                  std::to_string(std::get<1>(param_info.param));
                         });

// ---------------------------------------------------------------------------
// RoutingTable structural invariants under random operation sequences.
// ---------------------------------------------------------------------------

class RoutingTableProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RoutingTableProperty, LeafSetsStaySortedBoundedAndConsistent) {
  Rng rng(GetParam());
  OverlayParams params;
  params.leaf_set_half = 4;
  RoutingTable table("node0500", params);
  std::set<uint64_t> alive;
  for (int op = 0; op < 400; ++op) {
    if (alive.empty() || rng.Bernoulli(0.7)) {
      const uint64_t host = static_cast<uint64_t>(rng.UniformInt(1, 999));
      char name[16];
      std::snprintf(name, sizeof(name), "node%04d", static_cast<int>(host));
      if (std::string(name) != "node0500") {
        table.OfferLeaf(NodeRef{name, HostId(host)});
        alive.insert(host);
      }
    } else {
      auto it = alive.begin();
      std::advance(it, rng.UniformInt(0, static_cast<int64_t>(alive.size()) - 1));
      table.RemoveHost(HostId(*it));
      alive.erase(it);
    }

    // Invariant: each side bounded by leaf_set_half and sorted
    // nearest-first in its walking direction, with no duplicates.
    ASSERT_LE(table.leaf_cw().size(), 4u);
    ASSERT_LE(table.leaf_ccw().size(), 4u);
    const auto& cw = table.leaf_cw();
    for (size_t i = 1; i < cw.size(); ++i) {
      ASSERT_TRUE(CwStrictlyBetween(cw[i - 1].name, "node0500", cw[i].name))
          << "cw side out of order at op " << op;
    }
    const auto& ccw = table.leaf_ccw();
    for (size_t i = 1; i < ccw.size(); ++i) {
      ASSERT_TRUE(CwStrictlyBetween(ccw[i].name, "node0500", ccw[i - 1].name) ||
                  CwStrictlyBetween(ccw[i - 1].name, ccw[i].name, "node0500"))
          << "ccw side out of order at op " << op;
    }
    std::set<uint64_t> seen;
    for (const auto& r : table.DistinctNeighborHosts()) {
      ASSERT_TRUE(seen.insert(r.value).second) << "duplicate neighbor";
    }
    // NextHop must never return a node outside the known set, and never
    // overshoot the destination.
    const std::string dest = "node0750";
    const auto hop = table.NextHopTowards(dest);
    if (hop.has_value()) {
      ASSERT_TRUE(CwInInterval(hop->name, "node0500", dest)) << "overshoot at op " << op;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoutingTableProperty,
                         ::testing::Values(31u, 32u, 33u, 34u, 35u, 36u, 37u, 38u));

// ---------------------------------------------------------------------------
// Transport invariant: reliable-or-reported, never silent duplication.
// ---------------------------------------------------------------------------

class TransportDeliveryProperty : public ::testing::TestWithParam<double> {};

TEST_P(TransportDeliveryProperty, EveryMessageDeliveredOnceOrSenderToldOtherwise) {
  const double loss = GetParam();
  TopologyConfig tcfg;
  tcfg.num_as = 40;
  Simulation sim(static_cast<uint64_t>(loss * 1e6) + 5);
  SimNetwork net{Topology::Generate(tcfg, sim.rng())};
  net.SetPerLinkLossRate(loss);
  SimFabric fabric(sim, net, CostModel::Simulator());
  const HostId a = net.AddHost(sim.rng());
  const HostId b = net.AddHost(sim.rng());
  std::map<uint8_t, int> delivered;
  fabric.TransportFor(b)->RegisterHandler(msgtype::kTest, [&](const WireMessage& m) {
    delivered[m.payload[0]]++;
  });
  std::map<uint8_t, Status> reported;
  const int kMessages = 60;
  for (uint8_t i = 0; i < kMessages; ++i) {
    WireMessage m;
    m.to = b;
    m.type = msgtype::kTest;
    m.category = MsgCategory::kApp;
    m.payload = {i};
    fabric.TransportFor(a)->Send(std::move(m), [&reported, i](const Status& s) {
      reported[i] = s;
    });
    sim.RunFor(Duration::Minutes(3));
  }
  sim.RunFor(Duration::Minutes(10));
  for (uint8_t i = 0; i < kMessages; ++i) {
    // No duplicates, ever.
    EXPECT_LE(delivered[i], 1) << "message " << static_cast<int>(i) << " duplicated";
    // Every send has a verdict, and a positive verdict implies delivery.
    ASSERT_TRUE(reported.contains(i));
    if (reported[i].ok()) {
      EXPECT_EQ(delivered[i], 1) << "acked message " << static_cast<int>(i) << " not delivered";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(LossRates, TransportDeliveryProperty,
                         ::testing::Values(0.0, 0.005, 0.02, 0.08));

}  // namespace
}  // namespace fuse
