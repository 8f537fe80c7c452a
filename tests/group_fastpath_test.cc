// Group liveness tests (incremental link digests, coalesced group timers)
// and the GroupService facade.
//
// The maintained XOR-of-SHA1 digest is checked against a from-scratch
// recompute (FuseNode::DebugVerifyLinkDigests) and its wire bytes are pinned
// for a fixed ID set. The coalesced timers are checked behaviorally: armed
// timers stay O(nodes), crashes are still detected exactly once, and a
// skewed host's sweep delivers its verdict at timeout/rate without hanging.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "common/rng.h"
#include "common/serialize.h"
#include "common/sha1.h"
#include "fuzz/fault_schedule.h"
#include "fuzz/fuzz_runner.h"
#include "runtime/sim_cluster.h"
#include "service/group_service.h"
#include "transport/message.h"

namespace fuse {
namespace {

ClusterConfig FastPathConfig(int n, uint64_t seed) {
  ClusterConfig cfg;
  cfg.num_nodes = n;
  cfg.seed = seed;
  cfg.topology.num_as = 60;
  cfg.cost = CostModel::Simulator();
  return cfg;
}

FuseId CreateGroupSync(SimCluster& cluster, size_t root, const std::vector<size_t>& members,
                       Status* status_out) {
  FuseId id;
  bool done = false;
  Status status;
  cluster.node(root).fuse()->CreateGroup(cluster.RefsOf(members),
                                         [&](const Status& s, FuseId gid) {
                                           status = s;
                                           id = gid;
                                           done = true;
                                         });
  cluster.sim().RunUntilCondition([&] { return done; },
                                  cluster.sim().Now() + Duration::Minutes(3));
  EXPECT_TRUE(done) << "CreateGroup callback never fired";
  if (status_out != nullptr) {
    *status_out = status;
  }
  return id;
}

void ExpectDigestsVerify(SimCluster& cluster) {
  for (size_t i = 0; i < cluster.size(); ++i) {
    if (cluster.IsUp(i)) {
      EXPECT_TRUE(cluster.node(i).fuse()->DebugVerifyLinkDigests()) << "node " << i;
    }
  }
}

// Oracle test for the incremental digest: after arbitrary interleavings of
// group creation, explicit signals, crashes, and repair traffic, every
// node's maintained per-peer digest must equal a from-scratch recompute of
// XOR(SHA-1(id)) over its live link set.
TEST(IncrementalDigestTest, MatchesRecomputeUnderRandomChurn) {
  SimCluster cluster(FastPathConfig(12, 501));
  cluster.Build();
  Rng rng(0xd1685u);
  std::vector<FuseId> live;
  for (int round = 0; round < 30; ++round) {
    const int op = static_cast<int>(rng.UniformInt(0, 3));
    if (op <= 1 || live.empty()) {
      const size_t size = static_cast<size_t>(rng.UniformInt(2, 4));
      const auto members = cluster.PickLiveNodes(size);
      Status status;
      const FuseId id = CreateGroupSync(cluster, members[0], members, &status);
      if (status.ok()) {
        live.push_back(id);
      }
    } else {
      const size_t pick = static_cast<size_t>(rng.UniformInt(0, live.size() - 1));
      const FuseId id = live[pick];
      live.erase(live.begin() + static_cast<long>(pick));
      const auto signalers = cluster.PickLiveNodes(1);
      cluster.node(signalers[0]).fuse()->SignalFailure(id);
    }
    cluster.sim().RunFor(Duration::Seconds(5));
    ExpectDigestsVerify(cluster);
  }
  // A crash exercises the teardown + repair paths' digest maintenance.
  cluster.Crash(3);
  cluster.sim().RunFor(Duration::Minutes(5));
  ExpectDigestsVerify(cluster);
}

// The digest is the 20 bytes piggybacked on every overlay ping, so its
// encoding is wire format: XOR over the set of SHA-1(hi || lo), both halves
// big-endian. Pinned for a fixed ID set; XOR-ing an ID again removes it.
TEST(IncrementalDigestTest, WireDigestPinnedForFixedIdSet) {
  const FuseId ids[] = {{1, 2},
                        {0x0123456789abcdefULL, 0xfedcba9876543210ULL},
                        {0xdeadbeefcafef00dULL, 1}};
  Sha1Digest digest{};
  for (const FuseId& id : ids) {
    FuseNode::XorInto(digest, id);
  }
  EXPECT_EQ(Sha1::ToHex(digest), "04a1773bfce502c5a183f6ca93e8963a31bf8c3f");
  FuseNode::XorInto(digest, ids[1]);
  FuseNode::XorInto(digest, ids[2]);
  // Back to SHA-1 over {1, 2} alone.
  EXPECT_EQ(Sha1::ToHex(digest), "869b3badfbf1d6b744486bbc536272b8e85d8cc2");
}

// The reconcile link list is wire format, and the receiver tears groups
// down in its order: IDs go out in ascending FuseId order, whatever order
// the link index holds them in. Pings stop carrying digests here, so every
// node monitoring a link sees a mismatch and sends its list.
TEST(LinkIndexTest, ReconcileListIsInFuseIdOrder) {
  SimCluster cluster(FastPathConfig(8, 507));
  cluster.Build();
  constexpr size_t kGroups = 6;
  for (size_t i = 0; i < kGroups; ++i) {
    Status status;
    CreateGroupSync(cluster, 1, {1, 6}, &status);
    ASSERT_TRUE(status.ok());
  }
  size_t requests = 0;
  size_t longest = 0;
  for (size_t i = 0; i < cluster.size(); ++i) {
    cluster.node(i).overlay()->SetPingPayloadProvider(nullptr);
    cluster.node(i).transport()->RegisterHandler(
        msgtype::kFuseReconcileRequest, [&](const WireMessage& msg) {
          Reader r(msg.payload);
          std::vector<FuseId> ids(r.GetU32());
          for (FuseId& id : ids) {
            id = ReadFuseId(r);
            r.GetU32();  // seq
            r.GetU64();  // age
          }
          EXPECT_TRUE(r.Done());
          EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
          ++requests;
          longest = std::max(longest, ids.size());
        });
  }
  cluster.sim().RunFor(Duration::Minutes(3));
  EXPECT_GT(requests, 0u);
  EXPECT_EQ(longest, kGroups) << "no link carried every group";
}

// The fuzz sweep on the sharded engine (FuzzSmokeTest covers the classic
// one): detection timing shifts by up to a sweep rescan, which is within the
// oracle's windows.
TEST(CoalescedTimersTest, FuzzVerdictsStayGreen) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    const FaultSchedule s = GenerateSchedule(seed);
    FuzzRunOptions opts;
    opts.num_shards = 4;
    const FuzzRunResult r = RunSchedule(s, opts);
    EXPECT_TRUE(r.ok()) << "seed " << seed << ": " << r.log_line;
  }
}

// The coalescing claim itself: armed FUSE timers stay O(nodes) no matter how
// many groups exist, and a real crash is still detected by every surviving
// member exactly once.
TEST(CoalescedTimersTest, ArmedTimersStayFlatAndCrashIsDetected) {
  SimCluster cluster(FastPathConfig(16, 502));
  cluster.Build();

  struct Group {
    FuseId id;
    std::vector<size_t> members;
  };
  std::vector<Group> groups;
  for (int g = 0; g < 60; ++g) {
    const auto members = cluster.PickLiveNodes(3);
    Status status;
    const FuseId id = CreateGroupSync(cluster, members[0], members, &status);
    ASSERT_TRUE(status.ok());
    groups.push_back({id, members});
  }
  cluster.sim().RunFor(Duration::Minutes(2));

  size_t armed = 0;
  size_t live_groups = 0;
  for (size_t i = 0; i < cluster.size(); ++i) {
    armed += cluster.node(i).fuse()->CountArmedGroupTimers();
    live_groups += cluster.node(i).fuse()->NumLiveGroups();
  }
  // 60 groups x 3 members (plus delegates) hold hundreds of group records,
  // yet at most the one sweep timer per node plus transient repair state is
  // armed.
  EXPECT_GE(live_groups, 180u);
  EXPECT_LE(armed, 2 * cluster.size()) << "timers not coalesced";

  // A member can sit in several affected groups, so firings are counted per
  // (group, member) pair: exactly one notification for each.
  const size_t victim = groups[0].members[1];
  std::map<std::pair<size_t, size_t>, int> fired;
  for (size_t gi = 0; gi < groups.size(); ++gi) {
    const Group& g = groups[gi];
    bool affected = false;
    for (size_t m : g.members) {
      affected = affected || m == victim;
    }
    if (!affected) {
      continue;
    }
    for (size_t m : g.members) {
      if (m == victim) {
        continue;
      }
      cluster.node(m).fuse()->RegisterFailureHandler(
          g.id, [&fired, gi, m](FuseId) { fired[{gi, m}]++; });
    }
  }
  ASSERT_FALSE(fired.empty() && groups.empty());
  cluster.Crash(victim);
  cluster.sim().RunFor(Duration::Minutes(8));
  for (size_t gi = 0; gi < groups.size(); ++gi) {
    const Group& g = groups[gi];
    bool affected = false;
    for (size_t m : g.members) {
      affected = affected || m == victim;
    }
    for (size_t m : g.members) {
      if (!affected || m == victim) {
        continue;
      }
      EXPECT_EQ((fired[{gi, m}]), 1) << "group " << gi << " member " << m;
    }
  }
}

// After every group is gone the sweep disarms itself: a node with no
// monitored links holds zero armed FUSE timers.
TEST(CoalescedTimersTest, SweepDisarmsWhenIdle) {
  SimCluster cluster(FastPathConfig(10, 503));
  cluster.Build();
  std::vector<FuseId> ids;
  std::vector<std::vector<size_t>> member_sets;
  for (int g = 0; g < 10; ++g) {
    const auto members = cluster.PickLiveNodes(2);
    Status status;
    const FuseId id = CreateGroupSync(cluster, members[0], members, &status);
    ASSERT_TRUE(status.ok());
    ids.push_back(id);
    member_sets.push_back(members);
  }
  cluster.sim().RunFor(Duration::Minutes(1));
  for (size_t g = 0; g < ids.size(); ++g) {
    cluster.node(member_sets[g][0]).fuse()->SignalFailure(ids[g]);
  }
  // Long enough for every teardown to propagate and the armed sweeps to fire
  // once into empty peer tables.
  cluster.sim().RunFor(Duration::Minutes(5));
  for (size_t i = 0; i < cluster.size(); ++i) {
    EXPECT_EQ(cluster.node(i).fuse()->NumLiveGroups(), 0u) << "node " << i;
    EXPECT_EQ(cluster.node(i).fuse()->CountArmedGroupTimers(), 0u) << "node " << i;
  }
}

// A host with a fast clock (rate 2) scales every timer delay by 1/2. Its
// peer sweep must deliver the stale-link verdict at link_liveness_timeout / 2
// after the last refresh: the fire is the verdict for the deadline it was
// armed for; judged by Now(), the link would look not yet stale at every
// fire and the sweep would re-arm for half the remainder until it hit 0 us.
TEST(CoalescedTimersTest, SkewedSweepTearsDownStaleLinkAtTimeoutOverRate) {
  SimCluster cluster(FastPathConfig(8, 506));
  cluster.Build();
  cluster.sim().queue().SetStallLimit(100000);
  const size_t root = 2;
  FuseNode* root_fuse = cluster.node(root).fuse();
  // The root never hears its peers' digests, so nothing refreshes its links;
  // its own pings (and so its peers' view of the group) continue.
  cluster.net().faults().SetClockRate(cluster.node(root).host(), 2.0);
  cluster.node(root).overlay()->SetPingPayloadObserver(nullptr);

  bool done = false;
  Status status;
  root_fuse->CreateGroup(cluster.RefsOf({root, 5}), [&](const Status& s, FuseId) {
    status = s;
    done = true;
  });
  ASSERT_TRUE(cluster.sim().RunUntilCondition(
      [&] { return root_fuse->NumMonitoredLinks() > 0; },
      cluster.sim().Now() + Duration::Minutes(1)));
  const TimePoint installed = cluster.sim().Now();
  EXPECT_TRUE(cluster.sim().RunUntilCondition(
      [&] { return root_fuse->NumMonitoredLinks() == 0; },
      installed + Duration::Minutes(2)));
  EXPECT_EQ(cluster.sim().queue().stalled_at(), TimePoint::Max()) << "sweep livelocked";
  EXPECT_TRUE(done && status.ok());
  EXPECT_EQ(cluster.sim().Now() - installed, FuseParams().link_liveness_timeout / 2);
}

TEST(GroupServiceTest, CreateDrainWatchSignalRoundTrip) {
  SimCluster cluster(FastPathConfig(8, 504));
  cluster.Build();
  GroupServiceOptions opts;
  opts.max_inflight_creates = 64;
  GroupService svc(cluster, opts);

  for (int g = 0; g < 200; ++g) {
    svc.Create(static_cast<size_t>(g % 8),
               {static_cast<size_t>(g % 8), static_cast<size_t>((g + 1 + g / 8) % 8)});
  }
  ASSERT_TRUE(svc.Drain(Duration::Minutes(10)));
  EXPECT_EQ(svc.counters().creates_ok, 200u);
  EXPECT_EQ(svc.counters().creates_failed, 0u);
  EXPECT_EQ(svc.NumLive(), 200u);

  // Signal a quarter of them from their roots; each watched member hears
  // exactly once and the record disappears from the live view.
  std::vector<FuseId> doomed;
  svc.ForEachLive([&](FuseId id, const GroupService::Record&) {
    if (doomed.size() < 50) {
      doomed.push_back(id);
    }
  });
  int fires = 0;
  for (const FuseId& id : doomed) {
    const GroupService::Record* rec = svc.FindLive(id);
    ASSERT_NE(rec, nullptr);
    svc.Watch(rec->members[1], id, [&fires](FuseId) { ++fires; });
    svc.Signal(rec->root, id);
  }
  cluster.Await([&] { return fires >= 50; }, Duration::Minutes(5));
  EXPECT_EQ(fires, 50);
  EXPECT_EQ(svc.counters().notifications, 50u);
  EXPECT_EQ(svc.NumLive(), 150u);
  for (const FuseId& id : doomed) {
    EXPECT_EQ(svc.FindLive(id), nullptr);
  }
}

TEST(GroupServiceTest, CreateAgainstCrashedMemberCountsAsFailed) {
  SimCluster cluster(FastPathConfig(8, 505));
  cluster.Build();
  cluster.Crash(5);
  GroupService svc(cluster);
  svc.Create(0, {0, 5});
  svc.Create(1, {1, 2});
  ASSERT_TRUE(svc.Drain(Duration::Minutes(10)));
  EXPECT_EQ(svc.counters().creates_ok, 1u);
  EXPECT_EQ(svc.counters().creates_failed, 1u);
  EXPECT_EQ(svc.NumLive(), 1u);
}

}  // namespace
}  // namespace fuse
