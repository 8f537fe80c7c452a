#include "fuzz/scenario.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"

namespace fuse {

const char* ScenarioKindName(ScenarioKind kind) {
  switch (kind) {
    case ScenarioKind::kCrashMember:
      return "CrashMember";
    case ScenarioKind::kPartitionHeal:
      return "PartitionHeal";
    case ScenarioKind::kChurnDuringCreate:
      return "ChurnDuringCreate";
    case ScenarioKind::kMachineFailure:
      return "MachineFailure";
    case ScenarioKind::kCrashBystander:
      return "CrashBystander";
    case ScenarioKind::kSignal:
      return "Signal";
    case ScenarioKind::kPartition:
      return "Partition";
    case ScenarioKind::kMixed:
      return "Mixed";
  }
  return "Unknown";
}

ScenarioOptions ScenarioOptions::Live(uint64_t seed) {
  ScenarioOptions o;
  o.seed = seed;
  o.num_groups = 3;
  o.max_group_size = 4;
  o.churn_mean_uptime = Duration::Millis(1500);
  o.churn_mean_downtime = Duration::Millis(1000);
  o.oracle.bounds = OracleBounds::Live();
  return o;
}

namespace {

// The protocol's own worst-case detection time: a missed ping round plus the
// link liveness timeout, then member and root repair back to back. Healing
// (or ending churn) after it keeps the detection itself inside the fault.
Duration AnalyticDetectionBound(const HarnessConfig& c) {
  return c.overlay.ping_period + c.overlay.ping_timeout + c.fuse.link_liveness_timeout +
         c.fuse.member_repair_timeout + c.fuse.root_repair_timeout;
}

FaultClause Clause(FaultOp op, int64_t at_us = 0, uint32_t a = 0) {
  FaultClause c;
  c.op = op;
  c.at_us = at_us;
  c.a = a;
  return c;
}

// Machine failure: even groups span the victim machine (the oracle derives
// must-fire from the crash), odd groups are machine-disjoint controls.
void AddMachineFailure(const ScenarioOptions& options, const Placement& pl, FaultSchedule* s) {
  FUSE_CHECK(pl.NumMachines() >= 2) << "machine failure needs a multi-machine placement";
  Rng rng(options.seed * 7919 + 17);
  const int victim = static_cast<int>(rng.UniformInt(0, pl.NumMachines() - 1));
  std::vector<uint32_t> on;
  std::vector<uint32_t> off;
  for (int i = 0; i < pl.num_nodes; ++i) {
    (pl.MachineOf(static_cast<size_t>(i)) == victim ? on : off).push_back(static_cast<uint32_t>(i));
  }
  FUSE_CHECK(off.size() >= static_cast<size_t>(options.max_group_size) + 2)
      << "not enough nodes off machine " << victim << " for the scenario";
  for (int gi = 0; gi < options.num_groups; ++gi) {
    const size_t size = static_cast<size_t>(rng.UniformInt(2, options.max_group_size));
    rng.Shuffle(on);
    rng.Shuffle(off);
    GroupSpec g;
    if (gi % 2 == 0) {
      // One or two members on the doomed machine, the rest elsewhere; the
      // create root is randomized over the whole membership (a root on the
      // victim machine exercises the dead-root notification path).
      const size_t on_count = std::min(on.size(), size >= 4 ? size_t{2} : size_t{1});
      g.members.assign(on.begin(), on.begin() + static_cast<long>(on_count));
      g.members.insert(g.members.end(), off.begin(),
                       off.begin() + static_cast<long>(size - on_count));
      rng.Shuffle(g.members);
    } else {
      g.members.assign(off.begin(), off.begin() + static_cast<long>(size));
      g.expect = GroupExpect::kSilent;
    }
    s->explicit_groups.push_back(std::move(g));
  }
  s->clauses.push_back(Clause(FaultOp::kCrashMachine, 0, static_cast<uint32_t>(victim)));
}

}  // namespace

FaultSchedule ScenarioSchedule(ScenarioKind kind, const ScenarioOptions& options,
                               const HarnessConfig& config) {
  FaultSchedule s;
  s.seed = options.seed;
  s.num_nodes = config.num_nodes;
  s.num_groups = 0;
  if (kind == ScenarioKind::kMachineFailure) {
    AddMachineFailure(options, config.placement, &s);
    return s;
  }

  Rng rng(options.seed * 7919 + 13);
  const uint32_t n = static_cast<uint32_t>(config.num_nodes);
  // Under churn the upper index half cycles through kill/restart while the
  // groups live entirely in the stable lower half, so creation traffic still
  // routes through (and repairs around) churning overlay nodes.
  const uint32_t stable = kind == ScenarioKind::kChurnDuringCreate ? n / 2 : n;
  FUSE_CHECK(stable >= static_cast<uint32_t>(options.max_group_size) + 2)
      << "cluster too small for scenario";
  std::vector<uint32_t> pool(stable);
  std::iota(pool.begin(), pool.end(), 0u);
  for (int gi = 0; gi < options.num_groups; ++gi) {
    rng.Shuffle(pool);
    const auto size = rng.UniformInt(2, options.max_group_size);
    s.explicit_groups.push_back(GroupSpec{{pool.begin(), pool.begin() + size}});
  }
  const std::vector<uint32_t>& target = s.explicit_groups[0].members;
  const uint32_t victim =
      target[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(target.size()) - 1))];
  const int64_t detected_us = AnalyticDetectionBound(config).ToMicros();
  // Split the target: at least one member on each side (members all on one
  // side of a partition can still talk — that is not a failure).
  FaultClause split = Clause(FaultOp::kPartition);
  split.group.assign(target.begin(),
                     target.begin() + static_cast<long>(std::max<size_t>(1, target.size() / 2)));

  switch (kind) {
    case ScenarioKind::kMachineFailure:  // built by AddMachineFailure
      break;
    case ScenarioKind::kCrashMember:
      s.clauses.push_back(Clause(FaultOp::kCrash, 0, victim));
      break;
    case ScenarioKind::kChurnDuringCreate: {
      FaultClause churn = Clause(FaultOp::kChurnStart, 0, stable);
      churn.setup = true;
      churn.b = n - stable;
      churn.dur_us = options.churn_mean_uptime.ToMicros();
      churn.param = options.churn_mean_downtime.ToMillisF();
      s.clauses.push_back(churn);
      s.clauses.push_back(Clause(FaultOp::kCrash, 0, victim));
      s.clauses.push_back(Clause(FaultOp::kChurnStop, detected_us));
      break;
    }
    case ScenarioKind::kPartitionHeal:
      s.explicit_groups[0].expect = GroupExpect::kMustFire;
      s.clauses.push_back(split);
      s.clauses.push_back(Clause(FaultOp::kHealPartitions, detected_us));
      break;
    case ScenarioKind::kPartition:
      s.clauses.push_back(split);
      break;
    case ScenarioKind::kCrashBystander: {
      int budget = 3;
      for (uint32_t i = 0; i < n && budget > 0; ++i) {
        const bool member = std::any_of(
            s.explicit_groups.begin(), s.explicit_groups.end(), [i](const GroupSpec& g) {
              return std::count(g.members.begin(), g.members.end(), i) > 0;
            });
        if (!member && rng.Bernoulli(0.3)) {
          s.clauses.push_back(Clause(FaultOp::kCrash, 0, i));
          --budget;
        }
      }
      break;
    }
    case ScenarioKind::kSignal:
      for (size_t gi = 1; gi < s.explicit_groups.size(); ++gi) {
        s.explicit_groups[gi].expect = GroupExpect::kSilent;
      }
      s.clauses.push_back(Clause(FaultOp::kSignalFailure));
      break;
    case ScenarioKind::kMixed:
      s.clauses.push_back(Clause(FaultOp::kCrash, 0, target.back()));
      s.clauses.push_back(Clause(FaultOp::kSignalFailure));
      break;
  }
  return s;
}

FuzzRunResult RunAgreementScenario(ClusterHarness& cluster, ScenarioKind kind,
                                   const ScenarioOptions& options) {
  return RunSchedule(cluster, ScenarioSchedule(kind, options, cluster.harness_config()),
                     options.oracle);
}

}  // namespace fuse
