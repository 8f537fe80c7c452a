// Shared pieces of the repository benchmark: run options, the result record
// every workload fills, latency summaries, process-level CPU and memory
// probes, and the FUSE notification contract checker.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  // Sizes the schedule (simulated window, group count, create phase). The
  // schedule is fixed by (seed, seconds), so sim-time results repeat exactly.
  double seconds = 10;
  bool trace = false;
  std::string trace_path;
  // Worker threads of sim_overlay_churn's sharded engine; never changes its
  // sim-time results.
  int threads = 1;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

struct RunResult {
  uint64_t attempted = 0;  // creates + expected notifications
  uint64_t failed = 0;     // failed creates + missed notifications
  std::vector<std::string> violations;  // any entry makes the run incorrect
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  // Extra figures printed as text only (sample counts, tail percentile,
  // contract tallies, sim-time digest).
  std::vector<std::string> notes;

  void E2E(const std::string& name, const std::string& unit, double v) {
    end_to_end.push_back({name, unit, v});
  }
  void Layer(const std::string& name, const std::string& unit, double v) {
    per_layer.push_back({name, unit, v});
  }
  void Note(const std::string& line) { notes.push_back(line); }
};

// Median plus the highest of p75/p90/p95/p99/p99.9 with at least ten samples
// beyond it.
struct LatencySummary {
  size_t count = 0;
  double p50 = 0;
  double tail = 0;
  double tail_pct = 50;
};
LatencySummary Summarize(std::vector<double> values);
double Median(std::vector<double> values);

// --- process probes ---
struct CpuTimes {
  double user_s = 0;
  double sys_s = 0;
  double total() const { return user_s + sys_s; }
};
// This process (all threads).
CpuTimes SelfCpu();
// CPU of the calling thread.
double ThreadCpuSeconds();
// This process plus every descendant, live or reaped (children's times as
// their parents account them), from /proc.
double TreeCpuSeconds();
// Peak resident set of this process, MB.
double SelfPeakRssMb();
// Sum of the peak resident sets of this process and its live descendants.
double TreePeakRssMb();

// --- FUSE notification contract ---
// One failure watch. The workload says whether the member must hear about a
// fault and when the fault happened; the fires are what it observed.
struct WatchRecord {
  uint32_t group = 0;
  uint32_t member = 0;
  bool expect_fire = false;
  // The member stayed up for the whole run, so FUSE's agreement rule binds
  // it: once any member of its group is notified, it must be too.
  bool must_agree = true;
  bool sample_latency = true;  // false: counts for the contract only
  double fault_ms = 0;
  std::vector<double> fires_ms;
};

struct ContractReport {
  uint64_t expected = 0;
  uint64_t delivered = 0;
  uint64_t missed = 0;      // expected, absent or later than the bound
  uint64_t duplicates = 0;  // second and later fires of one watch
  uint64_t spurious = 0;    // fires on watches that must stay silent
  uint64_t partial = 0;     // groups notified at some live members only
  // Groups notified consistently at every live member with no fault on a
  // member (or before it): FUSE's false positives. Only workloads that break
  // overlay routes (churn, machine crashes) may have them; elsewhere they
  // count as spurious.
  uint64_t false_positive_groups = 0;
  std::vector<double> latency_ms;
  std::vector<std::string> violations;
};

// The time by which every group notified at some but not yet all of its
// must-agree members has had `bound_ms` since its first notification, or -1
// if there is none. A workload runs at least until then, so the agreement
// check below judges only notifications that had their full bound.
double AgreementDeadline(const std::vector<WatchRecord>& watches, double bound_ms);

// Checks exactly-once delivery within `bound_ms`, agreement inside each
// group, and silence where no fault was injected.
ContractReport CheckContract(const std::vector<WatchRecord>& watches, double bound_ms,
                             bool allow_false_positives);

// Checks the checker: synthetic record sets with a duplicate, a missing, a
// spurious and a partial notification must each be rejected.
bool ContractSelfTest(std::string* why);

// --- workloads ---
RunResult RunSimOverlayChurn(const RunOptions& opt);
RunResult RunSimGroupsService(const RunOptions& opt);
RunResult RunProcUdpMachineCrash(const RunOptions& opt);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
