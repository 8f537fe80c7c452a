// Fault schedules: serializable random fault programs for the schedule
// fuzzer (ROADMAP "scenario fuzzing and gray failures").
//
// A schedule is a cluster size, a group count, and a time-ordered list of
// fault clauses drawn from a weighted grammar — crashes/restarts, symmetric
// and asymmetric (one-way) link failures, partitions, timed loss bursts,
// slow-but-alive hosts and links, clock skew, message reordering, and
// explicit SignalFailure calls. Everything is derived from a single uint64
// seed and replays byte-identically on the discrete-event simulator; the
// text form round-trips exactly, so a failing schedule is a self-contained
// repro file (`fuzz_schedules --replay <file>`).
//
// Hand-written schedules (runtime scenarios, see fuzz/scenario.h) may also
// use what the generator never draws: machine crashes, churn start/stop,
// `setup` clauses that run before the groups are created, and explicit
// groups with fixed members and, where the oracle cannot derive it from the
// clauses, a fixed expectation (`must-fire` or `silent`).
#ifndef FUSE_FUZZ_FAULT_SCHEDULE_H_
#define FUSE_FUZZ_FAULT_SCHEDULE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"

namespace fuse {

enum class FaultOp : uint8_t {
  kCrash,           // a = node
  kRestart,         // a = node (no-op unless crashed)
  kBlockPair,       // a, b = nodes (symmetric link failure)
  kUnblockPair,     // a, b
  kBlockOneWay,     // a -> b only (asymmetric connectivity)
  kUnblockOneWay,   // a, b
  kPartition,       // group = node indices split away from the rest
  kHealPartitions,  // clears every partition
  kLossBurst,       // a = node scope (kAllNodes = everyone), dur, param = p
  kSlowHost,        // a = node, param = extra one-way delay in ms (0 heals)
  kSlowLink,        // a -> b, param = extra delay ms (0 heals)
  kClockSkew,       // a = node, param = timer rate (1.0 heals)
  kReorderJitter,   // a = node scope (kAllNodes = everyone), param = max ms
  kSignalFailure,   // a = group index (explicit application-level signal)
  // Never drawn by GenerateSchedule:
  kCrashMachine,    // a = machine index (every live co-hosted node at once)
  kChurnStart,      // nodes [a, a+b) kill/restart cycle; dur = mean uptime,
                    // param = mean downtime in ms
  kChurnStop,       // ends the churn cycle (no operands)
};

// Scope operand meaning "every node" (loss bursts, reorder jitter).
inline constexpr uint32_t kAllNodes = 0xffffffffu;

const char* FaultOpName(FaultOp op);

struct FaultClause {
  FaultOp op = FaultOp::kCrash;
  int64_t at_us = 0;   // offset from the start of the fault phase
  uint32_t a = 0;      // node operand (or group index / scope, per op)
  uint32_t b = 0;      // second node operand
  int64_t dur_us = 0;  // window length for timed ops (loss bursts)
  double param = 0.0;  // probability / rate / extra delay in ms, per op
  std::vector<uint32_t> group;  // partition member indices
  // Runs before the groups are created, in list order (at_us must be 0).
  bool setup = false;

  bool operator==(const FaultClause&) const = default;
};

// What the oracle demands of an explicit group. kAuto derives it from the
// executed clauses, exactly as for the seed-drawn groups.
enum class GroupExpect : uint8_t { kAuto, kMustFire, kSilent };

const char* GroupExpectName(GroupExpect e);

struct GroupSpec {
  std::vector<uint32_t> members;  // distinct node indices; members[0] is the root
  GroupExpect expect = GroupExpect::kAuto;

  bool operator==(const GroupSpec&) const = default;
};

struct FaultSchedule {
  uint64_t seed = 0;   // provenance + the run's derived rng seeds
  int num_nodes = 6;
  int num_groups = 1;  // groups drawn from the seed
  std::vector<GroupSpec> explicit_groups;  // appended after the drawn ones
  std::vector<FaultClause> clauses;  // sorted by at_us (stable)

  bool operator==(const FaultSchedule&) const = default;

  int total_groups() const { return num_groups + static_cast<int>(explicit_groups.size()); }

  // Exact, deterministic text form (one group or clause per line).
  // FromText(ToText()) reproduces the schedule field-for-field; FromText
  // rejects malformed lines (unknown ops or expectations, empty or
  // duplicate-member groups, operand-less churn or machine clauses, timed
  // setup clauses).
  std::string ToText() const;
  static bool FromText(const std::string& text, FaultSchedule* out);
};

// Composes a random schedule from the weighted fault grammar. Same seed,
// same schedule — the generator draws only from its own Rng(seed). It never
// draws explicit groups, setup clauses, machine crashes or churn.
FaultSchedule GenerateSchedule(uint64_t seed);

}  // namespace fuse

#endif  // FUSE_FUZZ_FAULT_SCHEDULE_H_
