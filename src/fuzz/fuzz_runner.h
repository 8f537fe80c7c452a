// The agreement oracle: executes one fault schedule on a cluster and grades
// the outcome against FUSE's guarantee. It is the only grader in the repo:
// the fuzzer runs generated schedules through it on the discrete-event
// simulator, and the runtime scenarios (fuzz/scenario.h) run hand-written
// schedules through it on the simulator, the live wall-clock runtime and the
// N-process backend alike.
//
// The oracle classifies each group from the executed schedule:
//   * must-fire — a member crashed, the application signaled the group, a
//     never-healed partition splits the (never-crashed) members, or the
//     schedule names the group `must-fire`: every never-crashed member must
//     hear exactly one notification;
//   * must-not-fire — no fault executed at all, or the schedule names the
//     group `silent`: any notification is a violation ("no notification
//     while all members are live and connected");
//   * may-fire — everything else (loss bursts, slow links, skew, healed or
//     partial connectivity faults, non-member crashes, churn): false
//     positives are legal FUSE behavior and are counted as detector QoS, but
//     agreement is still one-way — if any member heard a notification, every
//     never-crashed member must hear exactly one.
// Duplicate notifications are violations everywhere. Groups get one extra
// detection window before a partial delivery is declared a violation.
// Creation must succeed on a clean network; once setup clauses ran (or the
// caller declares the network adverse), a definite create failure is a
// legal verdict and is retried, and only a missing verdict is a violation.
// A run whose simulated clock stops advancing (a livelock: the engine runs
// kLivelockEvents events in a row at one instant) is stopped and reported as
// a `livelock` violation, so a hang gets a verdict and can be shrunk.
//
// Detector QoS (Duarte et al.'s diagnosis framing): per run, the number of
// false-positive groups and the worst time from a group's trigger to full
// member coverage are reported alongside the verdict.
#ifndef FUSE_FUZZ_FUZZ_RUNNER_H_
#define FUSE_FUZZ_FUZZ_RUNNER_H_

#include <string>
#include <vector>

#include "common/time.h"
#include "fuzz/fault_schedule.h"
#include "runtime/cluster.h"

namespace fuse {

// Events in a row at one simulated instant that count as a livelock. A
// healthy schedule runs at most a few thousand (a burst of same-instant
// deliveries); a timer re-firing at one instant passes this within a second.
inline constexpr uint64_t kLivelockEvents = 1000000;

// The oracle's waits. Virtual minutes on the simulator; wall-clock seconds
// against the scaled live protocol constants (LiveClusterConfig::FastProtocol).
struct OracleBounds {
  Duration settle;        // quiet period between group creation and the faults
  Duration create_bound;  // bound on one CreateGroup returning a verdict
  Duration detect_bound;  // bound on every implicated member being notified
  // Wall-clock runs stop waiting once every implicated group is complete and
  // then watch this long for duplicates and late fires. Simulated runs
  // always watch the whole detect window instead (it costs nothing).
  Duration post_settle;

  // The simulator's analytic bound: ping interval + ping timeout + repair
  // timeouts, with slack for backoff — well within 8 minutes.
  static OracleBounds Sim() {
    return {Duration::Minutes(2), Duration::Minutes(3), Duration::Minutes(8),
            Duration::Minutes(2)};
  }
  // Matched to FastProtocol: detection is a few ping periods + repair
  // timeouts, i.e. single-digit seconds.
  static OracleBounds Live() {
    return {Duration::Seconds(1), Duration::Seconds(5), Duration::Seconds(10),
            Duration::Seconds(1)};
  }
};

struct FuzzRunOptions {
  // Test hook for the shrinker's own coverage: the first member's failure
  // watch counts every notification twice, so any real notification becomes
  // a duplicate-delivery violation the shrinker must minimize.
  bool plant_duplicate_watch = false;
  // Test hook for the livelock verdict: the first member's failure watch
  // starts a zero-delay event that re-arms itself forever, so the first
  // notification freezes the simulated clock.
  bool plant_livelock = false;

  // Simulator backend of the schedule-only entry point (see MakeSimCluster):
  // 0 runs the classic single-threaded engine; >= 1 runs the sharded engine
  // with that many shards and `threads` workers. The oracle verdict and QoS
  // counters are a function of (schedule, num_shards) only — never of
  // threads.
  int num_shards = 0;
  int threads = 1;

  OracleBounds bounds = OracleBounds::Sim();
  // Set when the network is deliberately adverse in a way the schedule does
  // not show (e.g. per-link loss applied to the fabric): the run is graded
  // as faulty from the start, like one with setup clauses — a definite
  // create failure is a legal verdict (paper section 7.6: transport
  // connections break under such conditions), and no group is must-not-fire
  // (`silent` groups included).
  bool adverse_network = false;
};

struct FuzzRunResult {
  std::vector<std::string> violations;  // empty = schedule passed
  int groups_created = 0;
  int creates_failed = 0;    // definite create failures (legal under adversity)
  int groups_fired = 0;      // groups where >= 1 member heard a notification
  int false_positives = 0;   // fired groups the oracle did not require to fire
  int64_t max_detection_latency_us = 0;  // worst trigger->full-coverage time
  // Deterministic one-line summary (same schedule => byte-identical line).
  std::string log_line;

  bool ok() const { return violations.empty(); }
  // The log line plus one line per violation, for test failure messages.
  std::string ToString() const;
};

// Runs `schedule` on an already-Build()-ed cluster of any backend: creates
// the groups, executes the clauses in time order and grades the outcome.
// Uses only ClusterHarness calls, so the verdict means the same thing on
// every backend.
FuzzRunResult RunSchedule(ClusterHarness& cluster, const FaultSchedule& schedule,
                          const FuzzRunOptions& options);

// The fuzzer's entry point: builds the simulated cluster the schedule
// describes (MakeSimCluster, `options.num_shards`) and runs it.
FuzzRunResult RunSchedule(const FaultSchedule& schedule, const FuzzRunOptions& options);

inline FuzzRunResult RunSchedule(const FaultSchedule& schedule) {
  return RunSchedule(schedule, FuzzRunOptions());
}

}  // namespace fuse

#endif  // FUSE_FUZZ_FUZZ_RUNNER_H_
