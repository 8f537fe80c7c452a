#include "fuzz/fuzz_runner.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <memory>
#include <set>

#include "runtime/sharded_sim_cluster.h"

namespace fuse {

namespace {

// Per-group observation state. Shared with the failure-watch closures, which
// stay registered in the nodes for the cluster's whole lifetime (on the
// wall-clock backends the nodes keep running after RunSchedule returns).
struct GroupObs {
  FuseId id;
  std::vector<size_t> members;
  GroupExpect expect = GroupExpect::kAuto;
  bool created = false;
  std::map<size_t, int> fired;             // member -> notification count
  std::map<size_t, int64_t> first_fire_us; // member -> first notification time
  // Oracle classification, filled during clause execution.
  bool must_fire = false;
  int64_t trigger_us = -1;  // first clause implicating this group
};

// Re-arms itself with zero delay forever: simulated time stops advancing.
struct Spin {
  Environment* env;
  void operator()() const { env->Schedule(Duration::Zero(), Spin{env}); }
};

void NoteTrigger(GroupObs& g, int64_t now_us) {
  if (g.trigger_us < 0) {
    g.trigger_us = now_us;
  }
}

// Definite create failures under adversity are retried this many times in
// all, so a churned or lossy run still gets groups to grade.
constexpr int kCreateAttemptsUnderFaults = 8;

}  // namespace

std::string FuzzRunResult::ToString() const {
  std::string s = log_line;
  if (creates_failed > 0) {
    s += " creates_failed=" + std::to_string(creates_failed);
  }
  for (const std::string& v : violations) {
    s += "\n  violation: " + v;
  }
  return s;
}

FuzzRunResult RunSchedule(const FaultSchedule& schedule, const FuzzRunOptions& options) {
  ClusterConfig cfg;
  cfg.num_nodes = std::max(schedule.num_nodes, 4);
  cfg.seed = schedule.seed * 2654435761ULL + 0x9e3779b9ULL;
  cfg.topology.num_as = 40;  // small physical topology: schedule throughput
  cfg.cost = CostModel::Simulator();
  cfg.num_shards = options.num_shards;
  cfg.threads = options.threads;
  const std::unique_ptr<ClusterHarness> cluster = MakeSimCluster(cfg);
  cluster->SetStallLimit(kLivelockEvents);
  cluster->Build();
  return RunSchedule(*cluster, schedule, options);
}

FuzzRunResult RunSchedule(ClusterHarness& cluster, const FaultSchedule& schedule,
                          const FuzzRunOptions& options) {
  FuzzRunResult res;
  char buf[192];
  auto violate = [&res, &buf](const char* fmt, auto... args) {
    std::snprintf(buf, sizeof(buf), fmt, args...);
    res.violations.emplace_back(buf);
  };
  const OracleBounds& bounds = options.bounds;
  const int n = static_cast<int>(cluster.size());
  const auto nidx = [n](uint32_t v) { return v == kAllNodes ? v : v % static_cast<uint32_t>(n); };

  // Drawn group membership is derived from the schedule seed alone (not the
  // cluster rng), so the shrinker can re-run reduced schedules comparably.
  // Explicit groups follow, clamped to the cluster like every node operand.
  Rng group_rng(schedule.seed ^ 0xfacefeedcafef00dULL);
  std::vector<std::shared_ptr<GroupObs>> groups;
  for (int gi = 0; gi < schedule.num_groups; ++gi) {
    auto g = std::make_shared<GroupObs>();
    const size_t size =
        static_cast<size_t>(group_rng.UniformInt(2, std::min<int64_t>(5, n)));
    for (size_t idx : group_rng.SampleIndices(static_cast<size_t>(n), size)) {
      g->members.push_back(idx);
    }
    std::sort(g->members.begin(), g->members.end());
    groups.push_back(std::move(g));
  }
  for (const GroupSpec& spec : schedule.explicit_groups) {
    auto g = std::make_shared<GroupObs>();
    g->expect = spec.expect;
    for (uint32_t m : spec.members) {
      const size_t idx = nidx(m);
      if (std::count(g->members.begin(), g->members.end(), idx) == 0) {
        g->members.push_back(idx);
      }
    }
    groups.push_back(std::move(g));
  }

  // `shadow` mirrors only the partition state: a partition that still splits
  // two (never-crashed) members when the run ends cuts every path between
  // them, so the groups it splits are must-fire. Pair/one-way blocks are NOT
  // mirrored — they cut single links, which the delegate tree may legally
  // route around, so they only ever make a group may-fire.
  FaultInjector shadow;
  // Nodes that may have lost their state: crashed by a clause, or in a churn
  // range. They owe no notification, and never signal.
  std::set<size_t> ever_crashed;
  bool any_fault_executed = options.adverse_network;
  TimePoint fault_start = cluster.env().Now();
  auto host_of = [&cluster](uint32_t idx) { return cluster.RefOf(idx).host; };
  auto is_up = [&cluster](size_t i) {
    bool up = false;
    cluster.Run([&] { up = cluster.IsUp(i); });
    return up;
  };
  auto note_crash = [&](size_t node, int64_t now_us) {
    ever_crashed.insert(node);
    for (auto& g : groups) {
      if (g->created && std::count(g->members.begin(), g->members.end(), node) > 0) {
        g->must_fire = true;
        NoteTrigger(*g, now_us);
      }
    }
  };

  auto note_split_groups = [&] {
    // After a partition-state change: any group with two never-crashed
    // members now split gets its trigger stamped (classification to
    // must-fire happens at the end, from the FINAL partition state).
    const int64_t now_us = (cluster.env().Now() - fault_start).ToMicros();
    for (auto& g : groups) {
      if (!g->created) {
        continue;
      }
      for (size_t i = 0; i < g->members.size(); ++i) {
        for (size_t j = i + 1; j < g->members.size(); ++j) {
          if (ever_crashed.contains(g->members[i]) || ever_crashed.contains(g->members[j])) {
            continue;
          }
          if (shadow.IsBlocked(host_of(static_cast<uint32_t>(g->members[i])),
                               host_of(static_cast<uint32_t>(g->members[j])))) {
            NoteTrigger(*g, now_us);
          }
        }
      }
    }
  };

  auto execute = [&](const FaultClause& raw) {
    FaultClause c = raw;
    // Clamp node operands so shrunk schedules (smaller clusters) stay valid.
    // (A machine crash carries a machine index, churn a node range.)
    if (c.op != FaultOp::kCrashMachine && c.op != FaultOp::kChurnStart &&
        c.op != FaultOp::kChurnStop) {
      c.a = nidx(c.a);
      c.b = nidx(c.b);
    }
    const int64_t now_us = (cluster.env().Now() - fault_start).ToMicros();
    switch (c.op) {
      case FaultOp::kCrash: {
        if (!is_up(c.a)) {
          break;  // already down: clause is a no-op, not an error
        }
        cluster.Crash(c.a);
        any_fault_executed = true;
        note_crash(c.a, now_us);
        break;
      }
      case FaultOp::kRestart:
        if (!is_up(c.a)) {
          cluster.RestartAsync(c.a);
          any_fault_executed = true;
        }
        break;
      case FaultOp::kBlockPair:
        if (c.a != c.b) {
          cluster.ApplyFaults(
              [&](FaultInjector& f) { f.BlockPair(host_of(c.a), host_of(c.b)); });
          any_fault_executed = true;
        }
        break;
      case FaultOp::kUnblockPair:
        cluster.ApplyFaults([&](FaultInjector& f) { f.UnblockPair(host_of(c.a), host_of(c.b)); });
        break;
      case FaultOp::kBlockOneWay:
        if (c.a != c.b) {
          cluster.ApplyFaults(
              [&](FaultInjector& f) { f.BlockOneWay(host_of(c.a), host_of(c.b)); });
          any_fault_executed = true;
        }
        break;
      case FaultOp::kUnblockOneWay:
        cluster.ApplyFaults(
            [&](FaultInjector& f) { f.UnblockOneWay(host_of(c.a), host_of(c.b)); });
        break;
      case FaultOp::kPartition: {
        std::vector<HostId> side;
        std::set<uint32_t> seen;
        for (uint32_t m : c.group) {
          const uint32_t idx = m % static_cast<uint32_t>(n);
          if (seen.insert(idx).second) {
            side.push_back(host_of(idx));
          }
        }
        if (!side.empty() && side.size() < static_cast<size_t>(n)) {
          cluster.ApplyFaults([&side](FaultInjector& f) { f.PartitionHosts(side); });
          shadow.PartitionHosts(side);
          any_fault_executed = true;
          note_split_groups();
        }
        break;
      }
      case FaultOp::kHealPartitions:
        cluster.ApplyFaults([](FaultInjector& f) { f.ClearPartitions(); });
        shadow.ClearPartitions();
        break;
      case FaultOp::kLossBurst: {
        const HostId scope = c.a == kAllNodes ? HostId() : host_of(c.a);
        const TimePoint from = cluster.env().Now();
        const TimePoint until = from + Duration::Micros(std::max<int64_t>(c.dur_us, 1));
        const double p = std::clamp(c.param, 0.0, 1.0);
        cluster.ApplyFaults(
            [&](FaultInjector& f) { f.AddLossBurst(scope, from, until, p); });
        any_fault_executed = true;
        break;
      }
      case FaultOp::kSlowHost:
        cluster.ApplyFaults(
            [&](FaultInjector& f) { f.SetHostDelay(host_of(c.a), Duration::MillisF(c.param)); });
        any_fault_executed = true;
        break;
      case FaultOp::kSlowLink:
        if (c.a != c.b) {
          cluster.ApplyFaults([&](FaultInjector& f) {
            f.SetLinkDelay(host_of(c.a), host_of(c.b), Duration::MillisF(c.param));
          });
          any_fault_executed = true;
        }
        break;
      case FaultOp::kClockSkew:
        cluster.ApplyFaults([&](FaultInjector& f) {
          f.SetClockRate(host_of(c.a), std::clamp(c.param, 0.1, 10.0));
        });
        any_fault_executed = true;
        break;
      case FaultOp::kReorderJitter: {
        const HostId scope = c.a == kAllNodes ? HostId() : host_of(c.a);
        cluster.ApplyFaults(
            [&](FaultInjector& f) { f.SetReorderJitter(scope, Duration::MillisF(c.param)); });
        any_fault_executed = true;
        break;
      }
      case FaultOp::kSignalFailure: {
        if (groups.empty()) {
          break;
        }
        GroupObs& g = *groups[c.a % groups.size()];
        if (!g.created) {
          break;
        }
        // Signal from the first member that never crashed (it still holds
        // the group state); skip if every member has crashed.
        size_t signaler = g.members.size();
        for (size_t m : g.members) {
          if (!ever_crashed.contains(m) && is_up(m)) {
            signaler = m;
            break;
          }
        }
        if (signaler == g.members.size()) {
          break;
        }
        cluster.Run([&] { cluster.SignalGroupInContext(signaler, g.id); });
        g.must_fire = true;
        NoteTrigger(g, now_us);
        any_fault_executed = true;
        break;
      }
      case FaultOp::kCrashMachine: {
        const int machine = static_cast<int>(
            c.a % static_cast<uint32_t>(cluster.placement().NumMachines()));
        std::vector<size_t> victims;
        for (size_t i : cluster.placement().NodesOn(machine)) {
          if (is_up(i)) {
            victims.push_back(i);
          }
        }
        if (victims.empty()) {
          break;  // the whole machine is already down
        }
        cluster.CrashMachine(static_cast<size_t>(machine));
        any_fault_executed = true;
        for (size_t v : victims) {
          note_crash(v, now_us);
        }
        break;
      }
      case FaultOp::kChurnStart: {
        const size_t first = c.a % static_cast<uint32_t>(n);
        const size_t count = std::min<size_t>(c.b, static_cast<size_t>(n) - first);
        cluster.StartChurn(first, count, Duration::Micros(c.dur_us),
                           Duration::MillisF(c.param));
        // A churned node may crash and restart at any time: it owes no
        // notification, and a group it belongs to becomes may-fire.
        for (size_t i = first; i < first + count; ++i) {
          ever_crashed.insert(i);
        }
        any_fault_executed = true;
        break;
      }
      case FaultOp::kChurnStop:
        cluster.StopChurn();
        break;
    }
  };

  // --- setup clauses: the network groups are created on ---
  for (const FaultClause& c : schedule.clauses) {
    if (c.setup) {
      execute(c);
    }
  }
  const bool adverse_create = any_fault_executed;

  // Create every group. On a clean network a failure is a violation in its
  // own right (creation must succeed without faults); under adversity only a
  // missing verdict is, and a definite failure is retried.
  for (size_t gi = 0; gi < groups.size(); ++gi) {
    GroupObs& g = *groups[gi];
    struct CreateState {
      bool done = false;
      Status status;
      FuseId id;
    };
    const int attempts = adverse_create ? kCreateAttemptsUnderFaults : 1;
    bool no_verdict = false;
    for (int attempt = 0; attempt < attempts && !g.created && !no_verdict; ++attempt) {
      auto st = std::make_shared<CreateState>();
      cluster.Run([&] {
        cluster.CreateGroupInContext(g.members[0], cluster.RefsOf(g.members),
                                     [st](const Status& s, FuseId id) {
                                       st->status = s;
                                       st->id = id;
                                       st->done = true;
                                     });
      });
      if (!cluster.Await([st] { return st->done; }, bounds.create_bound)) {
        no_verdict = true;
      } else if (st->status.ok()) {
        g.id = st->id;
        g.created = true;
      }
    }
    if (no_verdict) {
      violate(adverse_create ? "group %zu: create returned no verdict"
                             : "group %zu: create returned no verdict on a clean network",
              gi);
      continue;
    }
    if (!g.created) {
      ++res.creates_failed;
      if (!adverse_create) {
        violate("group %zu: create failed on a clean network", gi);
      }
      continue;
    }
    ++res.groups_created;
    auto gp = groups[gi];
    cluster.Run([&] {
      for (size_t m : gp->members) {
        // The planted bug records every notification to the first member
        // twice, as if the delivery layer had duplicated it (the protocol's
        // own handler slot is replace-on-register, so a genuine double
        // registration would mask rather than duplicate).
        const int per_fire =
            options.plant_duplicate_watch && m == gp->members[0] ? 2 : 1;
        const bool spin = options.plant_livelock && m == gp->members[0];
        cluster.WatchGroupMemberInContext(m, gp->id, [gp, m, &cluster, per_fire, spin] {
          if (spin) {
            Spin{&cluster.env()}();
          }
          gp->fired[m] += per_fire;
          if (!gp->first_fire_us.contains(m)) {
            gp->first_fire_us[m] = cluster.env().Now().ToMicros();
          }
        });
      }
    });
  }
  cluster.AdvanceFor(bounds.settle);

  // --- execute the fault clauses in time order ---
  fault_start = cluster.env().Now();
  int64_t cursor_us = 0;
  for (const FaultClause& c : schedule.clauses) {
    if (c.setup) {
      continue;
    }
    if (c.at_us > cursor_us) {
      cluster.AdvanceFor(Duration::Micros(c.at_us - cursor_us));
      cursor_us = c.at_us;
    }
    execute(c);
  }

  // Final partition state decides the connectivity half of must-fire: a
  // split that was never healed breaks the delegate tree across the
  // boundary, so both sides must detect and notify.
  for (auto& g : groups) {
    if (!g->created || g->must_fire) {
      continue;
    }
    for (size_t i = 0; i < g->members.size() && !g->must_fire; ++i) {
      for (size_t j = i + 1; j < g->members.size(); ++j) {
        if (ever_crashed.contains(g->members[i]) || ever_crashed.contains(g->members[j])) {
          continue;
        }
        if (shadow.IsBlocked(host_of(static_cast<uint32_t>(g->members[i])),
                             host_of(static_cast<uint32_t>(g->members[j])))) {
          g->must_fire = true;
          break;
        }
      }
    }
  }
  // An explicit expectation overrides whatever the clauses implied.
  for (auto& g : groups) {
    if (g->expect != GroupExpect::kAuto) {
      g->must_fire = g->expect == GroupExpect::kMustFire;
    }
  }

  // --- detection tail + oracle ---
  auto incomplete = [&](const GroupObs& g) {
    // A group that must fire, or has partially fired, and is still missing a
    // never-crashed member's notification.
    bool any_fired = false;
    bool all_fired = true;
    for (size_t m : g.members) {
      if (ever_crashed.contains(m)) {
        continue;
      }
      const auto it = g.fired.find(m);
      if (it != g.fired.end() && it->second > 0) {
        any_fired = true;
      } else {
        all_fired = false;
      }
    }
    return (g.must_fire || any_fired) && !all_fired;
  };
  auto any_incomplete = [&] {
    for (const auto& g : groups) {
      if (g->created && incomplete(*g)) {
        return true;
      }
    }
    return false;
  };
  if (cluster.virtual_time()) {
    // Simulated time is free: watch the whole window, so late false
    // positives are graded too.
    cluster.AdvanceFor(bounds.detect_bound);
    bool needs_extension = false;
    cluster.Run([&] { needs_extension = any_incomplete(); });
    if (needs_extension) {
      cluster.AdvanceFor(bounds.detect_bound);
    }
  } else {
    if (!cluster.Await([&] { return !any_incomplete(); }, bounds.detect_bound)) {
      cluster.Await([&] { return !any_incomplete(); }, bounds.detect_bound);
    }
    cluster.AdvanceFor(bounds.post_settle);
  }

  cluster.Run([&] {
    for (size_t gi = 0; gi < groups.size(); ++gi) {
      GroupObs& g = *groups[gi];
      if (!g.created) {
        continue;
      }
      bool any_fired = false;
      int64_t full_coverage_us = -1;
      for (size_t m : g.members) {
        const auto it = g.fired.find(m);
        const int count = it == g.fired.end() ? 0 : it->second;
        if (count > 1) {
          violate("group %zu: member %zu heard %d notifications (want at most 1)", gi, m, count);
        }
        if (count > 0) {
          any_fired = true;
        }
        if (ever_crashed.contains(m)) {
          continue;  // lost its watch state with its incarnation
        }
        if (count > 0) {
          full_coverage_us = std::max(full_coverage_us, g.first_fire_us[m]);
        }
      }
      size_t live_members = 0;
      for (size_t m : g.members) {
        if (!ever_crashed.contains(m)) {
          ++live_members;
        }
      }
      if (any_fired) {
        ++res.groups_fired;
        if (!g.must_fire) {
          ++res.false_positives;
        }
      }
      if (!any_fault_executed && any_fired) {
        violate("group %zu: notification while all members were live and connected", gi);
      }
      // Faults the schedule does not show may legally touch any group.
      if (g.expect == GroupExpect::kSilent && any_fired && !options.adverse_network) {
        violate("group %zu: notified, but the schedule requires it to stay silent", gi);
      }
      if (live_members == 0) {
        continue;  // nobody left holding watch state: agreement is vacuous
      }
      if (g.must_fire || any_fired) {
        for (size_t m : g.members) {
          if (ever_crashed.contains(m)) {
            continue;
          }
          const auto it = g.fired.find(m);
          const int count = it == g.fired.end() ? 0 : it->second;
          if (count < 1) {
            violate(g.must_fire
                        ? "group %zu: member %zu never heard the required notification"
                        : "group %zu: member %zu missed the notification other members heard",
                    gi, m);
          }
        }
      }
      if (full_coverage_us >= 0 && g.trigger_us >= 0) {
        const int64_t latency =
            full_coverage_us - (fault_start.ToMicros() + g.trigger_us);
        if (latency > res.max_detection_latency_us) {
          res.max_detection_latency_us = latency;
        }
      }
    }
  });

  // A stalled engine ran nothing after the stall (it only drained events), so
  // the grading above judged a frozen cluster: the livelock is the verdict.
  if (const TimePoint at = cluster.StalledAt(); at != TimePoint::Max()) {
    res.violations.clear();
    violate("livelock: %" PRIu64 " events ran at t=%" PRId64 "us without sim time advancing",
            kLivelockEvents, at.ToMicros());
  }

  std::snprintf(buf, sizeof(buf),
                "run seed=%" PRIu64
                " nodes=%d groups=%d clauses=%zu created=%d fired=%d fp=%d maxlat_us=%" PRId64
                " verdict=%s(%zu)",
                schedule.seed, schedule.num_nodes, schedule.total_groups(),
                schedule.clauses.size(), res.groups_created, res.groups_fired,
                res.false_positives, res.max_detection_latency_us,
                res.ok() ? "ok" : "VIOLATION", res.violations.size());
  res.log_line = buf;
  return res;
}

}  // namespace fuse
