// Tests for SkipNet: id/order helpers, routing table operations, and live
// overlay behavior (join, ring invariants, routing, failure detection).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "overlay/ping_manager.h"
#include "overlay/routing_table.h"
#include "overlay/skipnet_id.h"
#include "runtime/sim_cluster.h"
#include "transport/tcp_model.h"

namespace fuse {
namespace {

TEST(SkipNetIdTest, CwInterval) {
  // Plain interval.
  EXPECT_TRUE(CwInInterval("b", "a", "c"));
  EXPECT_TRUE(CwInInterval("c", "a", "c"));   // inclusive upper end
  EXPECT_FALSE(CwInInterval("a", "a", "c"));  // exclusive lower end
  EXPECT_FALSE(CwInInterval("d", "a", "c"));
  // Wrapping interval (c, a]: everything above c or at/below a.
  EXPECT_TRUE(CwInInterval("d", "c", "a"));
  EXPECT_TRUE(CwInInterval("a", "c", "a"));
  EXPECT_FALSE(CwInInterval("b", "c", "a"));
  // Degenerate: whole ring.
  EXPECT_TRUE(CwInInterval("x", "m", "m"));
}

TEST(SkipNetIdTest, StrictlyBetween) {
  EXPECT_TRUE(CwStrictlyBetween("b", "a", "c"));
  EXPECT_FALSE(CwStrictlyBetween("c", "a", "c"));
  EXPECT_FALSE(CwStrictlyBetween("a", "a", "c"));
}

TEST(SkipNetIdTest, NumericDigits) {
  // Base 8 => 3 bits per digit from the MSB down.
  const NumericId id(0xE4'00'00'00'00'00'00'00ULL);  // 0b111'001'00...
  EXPECT_EQ(id.Digit(0, 3), 7u);
  EXPECT_EQ(id.Digit(1, 3), 1u);
  EXPECT_EQ(id.Digit(2, 3), 0u);
}

TEST(SkipNetIdTest, SharedPrefix) {
  const NumericId a(0xFF00000000000000ULL);
  const NumericId b(0xFF10000000000000ULL);
  EXPECT_TRUE(a.SharesPrefix(b, 0, 3));
  EXPECT_TRUE(a.SharesPrefix(b, 2, 3));   // first 6 bits match
  EXPECT_FALSE(a.SharesPrefix(b, 4, 3));  // differ within first 12 bits
  EXPECT_TRUE(a.SharesPrefix(a, 21, 3));
}

NodeRef Ref(const std::string& name, uint64_t host) { return NodeRef{name, HostId(host)}; }

TEST(RoutingTableTest, LeafSetKeepsNearest) {
  OverlayParams params;
  params.leaf_set_half = 2;
  RoutingTable t("m", params);
  EXPECT_TRUE(t.OfferLeaf(Ref("p", 1)));
  EXPECT_TRUE(t.OfferLeaf(Ref("q", 2)));
  EXPECT_TRUE(t.OfferLeaf(Ref("n", 3)));  // nearer than p and q clockwise
  // cw side ordered nearest-first: n, p (q pushed out).
  ASSERT_EQ(t.leaf_cw().size(), 2u);
  EXPECT_EQ(t.leaf_cw()[0].name, "n");
  EXPECT_EQ(t.leaf_cw()[1].name, "p");
  // The same nodes viewed counterclockwise wrap the other way.
  ASSERT_EQ(t.leaf_ccw().size(), 2u);
  EXPECT_EQ(t.leaf_ccw()[0].name, "q");
}

TEST(RoutingTableTest, OfferLeafRejectsSelfAndDuplicates) {
  OverlayParams params;
  RoutingTable t("m", params);
  EXPECT_FALSE(t.OfferLeaf(Ref("m", 9)));
  EXPECT_TRUE(t.OfferLeaf(Ref("a", 1)));
  EXPECT_FALSE(t.OfferLeaf(Ref("a", 1)));
}

TEST(RoutingTableTest, RemoveHostPurgesEverything) {
  OverlayParams params;
  RoutingTable t("m", params);
  t.OfferLeaf(Ref("a", 1));
  t.OfferLeaf(Ref("b", 2));
  t.SetLevel(1, true, Ref("a", 1));
  EXPECT_TRUE(t.HasNeighbor(HostId(1)));
  EXPECT_TRUE(t.RemoveHost(HostId(1)));
  EXPECT_FALSE(t.HasNeighbor(HostId(1)));
  EXPECT_FALSE(t.level(1).cw.valid());
  EXPECT_FALSE(t.RemoveHost(HostId(1)));
}

TEST(RoutingTableTest, DistinctNeighborsDeduplicated) {
  OverlayParams params;
  RoutingTable t("m", params);
  t.OfferLeaf(Ref("a", 1));
  t.SetLevel(1, true, Ref("a", 1));
  t.SetLevel(2, false, Ref("b", 2));
  EXPECT_EQ(t.DistinctNeighborHosts().size(), 2u);
}

TEST(RoutingTableTest, NextHopGreedy) {
  OverlayParams params;
  RoutingTable t("b", params);
  t.OfferLeaf(Ref("c", 1));
  t.OfferLeaf(Ref("f", 2));
  t.SetLevel(2, true, Ref("k", 3));
  // Toward "z": k makes the most clockwise progress without overshooting.
  auto hop = t.NextHopTowards("z");
  ASSERT_TRUE(hop.has_value());
  EXPECT_EQ(hop->name, "k");
  // Toward "d": f and k overshoot; c is the only candidate.
  hop = t.NextHopTowards("d");
  ASSERT_TRUE(hop.has_value());
  EXPECT_EQ(hop->name, "c");
  // Toward exactly "c": deliverable to c.
  hop = t.NextHopTowards("c");
  ASSERT_TRUE(hop.has_value());
  EXPECT_EQ(hop->name, "c");
  // Self: terminal.
  EXPECT_FALSE(t.NextHopTowards("b").has_value());
}

TEST(RoutingTableTest, NextHopEmptyTable) {
  OverlayParams params;
  RoutingTable t("m", params);
  EXPECT_FALSE(t.NextHopTowards("z").has_value());
}

// --- live overlay tests ---

ClusterConfig SmallConfig(int n, uint64_t seed) {
  ClusterConfig cfg;
  cfg.num_nodes = n;
  cfg.seed = seed;
  cfg.topology.num_as = 60;
  cfg.cost = CostModel::Simulator();
  return cfg;
}

TEST(OverlayClusterTest, BuildsPerfectRing) {
  SimCluster cluster(SmallConfig(32, 5));
  cluster.Build();
  EXPECT_EQ(cluster.CountRingViolations(), 0);
  // Every node has neighbors on both sides.
  for (size_t i = 0; i < cluster.size(); ++i) {
    EXPECT_GE(cluster.node(i).overlay()->NumDistinctNeighbors(), 2u);
  }
}

TEST(OverlayClusterTest, RoutesReachExactDestination) {
  SimCluster cluster(SmallConfig(48, 6));
  cluster.Build();
  auto& sim = cluster.sim();
  int delivered = 0;
  int sent = 0;
  // Register a terminal-upcall counter on every node.
  for (size_t i = 0; i < cluster.size(); ++i) {
    cluster.node(i).overlay()->SetRoutedHandler(
        7, [&delivered](SkipNetNode::RoutedUpcall& u) {
          if (u.at_dest) {
            ++delivered;
          }
          return false;
        });
  }
  for (int trial = 0; trial < 60; ++trial) {
    const auto pick = cluster.PickLiveNodes(2);
    ++sent;
    cluster.node(pick[0]).overlay()->RouteByName(cluster.node(pick[1]).ref().name, 7, {0xaa},
                                                 MsgCategory::kApp);
  }
  sim.RunFor(Duration::Seconds(60));
  EXPECT_EQ(delivered, sent);
}

TEST(OverlayClusterTest, RoutedHopUpcallsSeePrevAndNext) {
  SimCluster cluster(SmallConfig(40, 7));
  cluster.Build();
  int bad = 0;
  int final_count = 0;
  for (size_t i = 0; i < cluster.size(); ++i) {
    cluster.node(i).overlay()->SetRoutedHandler(
        9, [&](SkipNetNode::RoutedUpcall& u) {
          if (u.at_dest) {
            ++final_count;
            if (u.next_hop.valid()) {
              ++bad;  // terminal nodes must have no next hop
            }
          } else {
            if (!u.next_hop.valid() && u.hop_index > 0) {
              ++bad;  // stalled mid-route in a healthy overlay
            }
          }
          return false;
        });
  }
  const auto pick = cluster.PickLiveNodes(2);
  cluster.node(pick[0]).overlay()->RouteByName(cluster.node(pick[1]).ref().name, 9, {},
                                               MsgCategory::kApp);
  cluster.sim().RunFor(Duration::Seconds(30));
  EXPECT_EQ(final_count, 1);
  EXPECT_EQ(bad, 0);
}

TEST(OverlayClusterTest, RoutingIsLogarithmic) {
  SimCluster cluster(SmallConfig(64, 8));
  cluster.Build();
  int max_hops = 0;
  for (size_t i = 0; i < cluster.size(); ++i) {
    cluster.node(i).overlay()->SetRoutedHandler(
        3, [&](SkipNetNode::RoutedUpcall& u) {
          if (u.at_dest && u.hop_index > max_hops) {
            max_hops = u.hop_index;
          }
          return false;
        });
  }
  for (int trial = 0; trial < 40; ++trial) {
    const auto pick = cluster.PickLiveNodes(2);
    cluster.node(pick[0]).overlay()->RouteByName(cluster.node(pick[1]).ref().name, 3, {},
                                                 MsgCategory::kApp);
  }
  cluster.sim().RunFor(Duration::Seconds(60));
  // 64 nodes, base 8: expect ~log_8(64)=2 ring levels; greedy unidirectional
  // routing should stay well under the node count.
  EXPECT_LE(max_hops, 24);
  EXPECT_GT(max_hops, 0);
}

TEST(PingManagerTest, SlowRepliesWithTimeoutLongerThanPeriod) {
  // With timeout >= period several pings can be outstanding at once. A live
  // peer whose replies take longer than one period (but less than the
  // timeout) must not be declared failed — each reply disarms the failure
  // timeout even though it answers an older ping than the latest one sent.
  // A crashed peer must still time out.
  Simulation sim(11);
  TopologyConfig tcfg;
  tcfg.num_as = 20;
  tcfg.t3_fraction = 1.0;  // every AS link 300-500 ms: replies beat no period
  SimNetwork net(Topology::Generate(tcfg, sim.rng()));
  const HostId a = net.AddHost(sim.rng());
  HostId b = net.AddHost(sim.rng());
  for (int i = 0; i < 64 && net.GetPath(a, b).latency < Duration::Millis(300); ++i) {
    b = net.AddHost(sim.rng());
  }
  ASSERT_GE(net.GetPath(a, b).latency, Duration::Millis(300));
  SimFabric fabric(sim, net, CostModel::Simulator());

  const Duration period = Duration::Millis(200);
  const Duration timeout = Duration::Seconds(3);
  PingManager pinger(fabric.TransportFor(a), period, timeout);
  // The peer side only needs the reply handler its PingManager registers.
  PingManager replier(fabric.TransportFor(b), period, timeout);
  HostId failed_peer;
  pinger.SetFailureHandler([&](HostId h) { failed_peer = h; });
  pinger.UpdateNeighbors({b});
  pinger.Start();

  sim.RunFor(Duration::Seconds(30));
  EXPECT_FALSE(failed_peer.valid()) << "responsive peer with RTT > period declared failed";

  fabric.CrashHost(b);
  sim.RunFor(timeout + Duration::Seconds(2));
  EXPECT_EQ(failed_peer, b) << "crashed peer not detected within the timeout";
}

TEST(PingManagerTest, CoalescedRoundsDetectCrashWithoutFalsePositives) {
  // One batch timer plus one shared timeout timer per node. The shared
  // timer must deliver each peer's verdict at that peer's own deadline: here
  // the crashed peer is armed once and never disarmed, while the live peer
  // (replying every round, timeout > period so rounds overlap) keeps
  // acquiring later deadlines — so when the dead peer's verdict fires, the
  // timer must re-arm for the live peer's future deadline instead of failing
  // it early or going quiet.
  // At clock rate 2 (every timer delay on the pinger's host halved) each
  // verdict must land timeout/2 after its round, without the shared timer
  // re-firing at one instant.
  for (const double rate : {1.0, 2.0}) {
    SCOPED_TRACE(rate);
    Simulation sim(11);
    sim.queue().SetStallLimit(100000);
    TopologyConfig tcfg;
    tcfg.num_as = 20;
    SimNetwork net(Topology::Generate(tcfg, sim.rng()));
    const HostId a = net.AddHost(sim.rng());
    const HostId b = net.AddHost(sim.rng());
    const HostId c = net.AddHost(sim.rng());
    SimFabric fabric(sim, net, CostModel::Simulator());
    net.faults().SetClockRate(a, rate);

    const Duration period = Duration::Millis(200);
    const Duration timeout = Duration::Seconds(3);
    PingManager pinger(fabric.TransportFor(a), period, timeout);
    PingManager replier_b(fabric.TransportFor(b), period, timeout);
    PingManager replier_c(fabric.TransportFor(c), period, timeout);
    std::vector<std::pair<HostId, TimePoint>> failed;
    pinger.SetFailureHandler([&](HostId h) { failed.emplace_back(h, sim.Now()); });
    pinger.UpdateNeighbors({b, c});
    pinger.Start();

    // Both peers live: rounds come and go, nobody fails.
    sim.RunFor(Duration::Seconds(10));
    EXPECT_TRUE(failed.empty()) << "live peer declared failed";

    // Crash b; c keeps replying. Exactly b must fail, one timeout (on the
    // pinger's clock) after its first unanswered round, which leaves within
    // one period of the crash.
    const TimePoint crashed = sim.Now();
    fabric.CrashHost(b);
    sim.RunFor(timeout + Duration::Seconds(2));
    ASSERT_EQ(sim.queue().stalled_at(), TimePoint::Max()) << "round timeout livelocked";
    ASSERT_EQ(failed.size(), 1u);
    EXPECT_EQ(failed[0].first, b);
    const Duration latency = (failed[0].second - crashed) * rate;
    EXPECT_GE(latency, timeout - period);
    EXPECT_LE(latency, timeout + period);

    // The shared timer must still be tracking c: crash it and the (re-armed)
    // deadline chain must deliver its verdict too.
    fabric.CrashHost(c);
    sim.RunFor(timeout + Duration::Seconds(2));
    ASSERT_EQ(failed.size(), 2u);
    EXPECT_EQ(failed[1].first, c);
  }
}

TEST(OverlayClusterTest, PingFailureDetectionRemovesCrashedNeighbor) {
  SimCluster cluster(SmallConfig(24, 9));
  cluster.Build();
  // Find a neighbor pair.
  const size_t victim = 3;
  const HostId victim_host = cluster.node(victim).host();
  std::vector<size_t> observers;
  for (size_t i = 0; i < cluster.size(); ++i) {
    if (i != victim && cluster.node(i).overlay()->table().HasNeighbor(victim_host)) {
      observers.push_back(i);
    }
  }
  ASSERT_FALSE(observers.empty());
  cluster.Crash(victim);
  // Within ping period + timeout (+ slack), every observer notices and
  // removes the dead neighbor, and the ring heals around it — even though
  // each node's pings leave together in one batch per period.
  cluster.sim().RunFor(Duration::Seconds(200));
  for (size_t i : observers) {
    EXPECT_FALSE(cluster.node(i).overlay()->table().HasNeighbor(victim_host))
        << "observer " << i << " still references the crashed node";
  }
  EXPECT_EQ(cluster.CountRingViolations(), 0) << "ring did not heal";
}

TEST(OverlayClusterTest, CoalescedPingFailureDetectionRemovesCrashedNeighbor) {
  // Batched pings keep the per-peer detection bound: the victim's first
  // unanswered round leaves within one period of the crash and its verdict
  // lands one timeout after that round, so every observer has dropped the
  // dead neighbor by period + timeout (+ delivery slack), not merely
  // "eventually".
  const ClusterConfig cfg = SmallConfig(24, 9);
  SimCluster cluster(cfg);
  cluster.Build();
  const size_t victim = 3;
  const HostId victim_host = cluster.node(victim).host();
  std::vector<size_t> observers;
  for (size_t i = 0; i < cluster.size(); ++i) {
    if (i != victim && cluster.node(i).overlay()->table().HasNeighbor(victim_host)) {
      observers.push_back(i);
    }
  }
  ASSERT_FALSE(observers.empty());
  cluster.Crash(victim);
  cluster.sim().RunFor(cfg.overlay.ping_period + cfg.overlay.ping_timeout + Duration::Seconds(1));
  for (size_t i : observers) {
    EXPECT_FALSE(cluster.node(i).overlay()->table().HasNeighbor(victim_host))
        << "observer " << i << " missed the period + timeout detection bound";
  }
  cluster.sim().RunFor(Duration::Seconds(120));
  EXPECT_EQ(cluster.CountRingViolations(), 0) << "ring did not heal with coalesced pings";
}

TEST(OverlayClusterTest, RingHealsAfterCrash) {
  SimCluster cluster(SmallConfig(24, 10));
  cluster.Build();
  cluster.Crash(5);
  cluster.Crash(11);
  cluster.sim().RunFor(Duration::Minutes(6));
  EXPECT_EQ(cluster.CountRingViolations(), 0) << "ring did not heal after crashes";
}

TEST(OverlayClusterTest, RestartRejoins) {
  SimCluster cluster(SmallConfig(20, 11));
  cluster.Build();
  cluster.Crash(4);
  cluster.sim().RunFor(Duration::Minutes(3));
  cluster.Restart(4);
  EXPECT_TRUE(cluster.node(4).overlay()->joined());
  cluster.sim().RunFor(Duration::Minutes(4));
  EXPECT_EQ(cluster.CountRingViolations(), 0);
}

TEST(OverlayClusterTest, NeighborCountMatchesPaperScale) {
  // Paper section 7.1: 400 nodes, base 8, leaf set 16 => ~32.3 distinct
  // neighbors. We check the same order of magnitude at a smaller scale.
  SimCluster cluster(SmallConfig(96, 12));
  cluster.Build();
  const double avg = cluster.AvgDistinctNeighbors();
  EXPECT_GT(avg, 10.0);
  EXPECT_LT(avg, 40.0);
}

TEST(OverlayClusterTest, DeterministicBuild) {
  auto fingerprint = [](uint64_t seed) {
    SimCluster cluster(SmallConfig(24, seed));
    cluster.Build();
    size_t acc = 0;
    for (size_t i = 0; i < cluster.size(); ++i) {
      acc = acc * 31 + cluster.node(i).overlay()->NumDistinctNeighbors();
    }
    return acc;
  };
  EXPECT_EQ(fingerprint(77), fingerprint(77));
}

}  // namespace
}  // namespace fuse
