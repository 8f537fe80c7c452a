// Backend-parameterized runtime scenarios, written as fault schedules.
//
// Each scenario is ONE hand-written FaultSchedule builder — explicit groups,
// the fault clauses, and an expectation where the oracle cannot derive one —
// and RunSchedule (fuzz/fuzz_runner.h) grades it. The same schedule runs on
// the discrete-event simulator (virtual-time waits), the live wall-clock
// runtime and the N-process backend (bounded real-time waits), graded by the
// same oracle the fuzzer uses: must-fire / may-fire / must-not-fire classes,
// duplicate and partial-delivery checks, detection-latency QoS. This is the
// paper's section 7 methodology as an executable artifact: the experiment
// itself, not just the protocol stack, is deployment-agnostic.
#ifndef FUSE_FUZZ_SCENARIO_H_
#define FUSE_FUZZ_SCENARIO_H_

#include "fuzz/fault_schedule.h"
#include "fuzz/fuzz_runner.h"
#include "runtime/cluster.h"

namespace fuse {

// Group 0 is the fault target in every kind except kCrashBystander and
// kMachineFailure; the other groups ride along for the never-a-duplicate
// property.
enum class ScenarioKind {
  // Crash one member of the target: every other member must hear exactly
  // one notification.
  kCrashMember,
  // Partition part of the target's hosts away and heal once the protocol's
  // analytic detection bound has passed: agreement is one-way, so the target
  // is `must-fire` and reconnecting must neither suppress nor duplicate any
  // member's notification.
  kPartitionHeal,
  // Create the groups while the upper index half churns (a setup churn
  // clause), then crash a target member: creation must end with a definite
  // verdict despite churn, and agreement must hold on the created groups.
  kChurnDuringCreate,
  // Crash one whole machine (every co-hosted node at once — one SIGKILL on
  // the process backend): every group spanning the machine must notify each
  // of its live members exactly once, while machine-disjoint groups are
  // `silent` — co-hosted repair (dead delegates replaced without notifying)
  // must not turn a machine loss into false positives. Requires a placement
  // with at least two machines.
  kMachineFailure,
  // Crash up to three nodes that are in no group: delegates and bystanders
  // may die without a single duplicate notification.
  kCrashBystander,
  // The application signals the target; every other group is `silent`.
  kSignal,
  // Partition part of the target away for good: both sides must notify.
  kPartition,
  // Crash one target member and signal the target from another.
  kMixed,
};

const char* ScenarioKindName(ScenarioKind kind);

struct ScenarioOptions {
  uint64_t seed = 1;
  int num_groups = 6;
  int max_group_size = 6;  // groups have 2..max_group_size members
  // kChurnDuringCreate's exponential up/down times for the churned nodes.
  Duration churn_mean_uptime = Duration::Seconds(90);
  Duration churn_mean_downtime = Duration::Seconds(60);
  // Bounds and the adverse-network flag handed to the oracle.
  FuzzRunOptions oracle;

  // The wall-clock shape shared by the live and process suites: fewer,
  // smaller groups (real-thread coverage per second, not schedule breadth)
  // and the OracleBounds::Live() waits.
  static ScenarioOptions Live(uint64_t seed);
};

// The schedule for `kind` on a cluster configured as `config` (node count,
// placement, protocol constants). The cluster must have at least
// max_group_size + 2 nodes (kChurnDuringCreate draws its groups from the
// stable lower index half, so twice that).
FaultSchedule ScenarioSchedule(ScenarioKind kind, const ScenarioOptions& options,
                               const HarnessConfig& config);

// Builds the schedule for an already-Build()-ed cluster and grades it.
FuzzRunResult RunAgreementScenario(ClusterHarness& cluster, ScenarioKind kind,
                                   const ScenarioOptions& options);

}  // namespace fuse

#endif  // FUSE_FUZZ_SCENARIO_H_
