#include "bench.h"

#include <dirent.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>

namespace perfbench {

namespace {

double PercentileSorted(const std::vector<double>& v, double p) {
  if (v.empty()) {
    return 0;
  }
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

struct ProcStat {
  int pid = 0;
  int ppid = 0;
  double cpu_s = 0;  // utime + stime + cutime + cstime
};

bool ReadProcStat(int pid, ProcStat* out) {
  char path[64];
  std::snprintf(path, sizeof(path), "/proc/%d/stat", pid);
  std::ifstream in(path);
  std::string line;
  if (!std::getline(in, line)) {
    return false;
  }
  // The command name is parenthesised and may hold spaces; fields resume
  // after the last ')'.
  const size_t close = line.rfind(')');
  if (close == std::string::npos) {
    return false;
  }
  std::istringstream rest(line.substr(close + 2));
  std::string state;
  long long f[16] = {};
  rest >> state;
  for (long long& x : f) {
    rest >> x;  // fields 4..19: ppid ... cstime
  }
  static const double tick = static_cast<double>(sysconf(_SC_CLK_TCK));
  out->pid = pid;
  out->ppid = static_cast<int>(f[0]);
  // f[10..13] = utime, stime, cutime, cstime (fields 14..17).
  out->cpu_s = static_cast<double>(f[10] + f[11] + f[12] + f[13]) / tick;
  return true;
}

std::vector<ProcStat> SelfAndDescendants() {
  std::vector<ProcStat> all;
  if (DIR* d = opendir("/proc")) {
    while (dirent* e = readdir(d)) {
      const int pid = std::atoi(e->d_name);
      ProcStat s;
      if (pid > 0 && ReadProcStat(pid, &s)) {
        all.push_back(s);
      }
    }
    closedir(d);
  }
  std::vector<ProcStat> tree;
  std::vector<int> frontier = {static_cast<int>(getpid())};
  for (const ProcStat& s : all) {
    if (s.pid == frontier[0]) {
      tree.push_back(s);
    }
  }
  while (!frontier.empty()) {
    const int parent = frontier.back();
    frontier.pop_back();
    for (const ProcStat& s : all) {
      if (s.ppid == parent) {
        tree.push_back(s);
        frontier.push_back(s.pid);
      }
    }
  }
  return tree;
}

double VmHwmMb(int pid) {
  char path[64];
  std::snprintf(path, sizeof(path), "/proc/%d/status", pid);
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0;
}

}  // namespace

LatencySummary Summarize(std::vector<double> values) {
  LatencySummary s;
  std::sort(values.begin(), values.end());
  s.count = values.size();
  s.p50 = PercentileSorted(values, 50);
  s.tail = s.p50;
  for (const double p : {75.0, 90.0, 95.0, 99.0, 99.9}) {
    if (static_cast<double>(values.size()) * (100.0 - p) / 100.0 >= 10.0) {
      s.tail = PercentileSorted(values, p);
      s.tail_pct = p;
    }
  }
  return s;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return PercentileSorted(values, 50);
}

CpuTimes SelfCpu() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  CpuTimes t;
  t.user_s = static_cast<double>(ru.ru_utime.tv_sec) + ru.ru_utime.tv_usec * 1e-6;
  t.sys_s = static_cast<double>(ru.ru_stime.tv_sec) + ru.ru_stime.tv_usec * 1e-6;
  return t;
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double TreeCpuSeconds() {
  double total = 0;
  for (const ProcStat& s : SelfAndDescendants()) {
    total += s.cpu_s;
  }
  return total;
}

double SelfPeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double TreePeakRssMb() {
  double total = 0;
  for (const ProcStat& s : SelfAndDescendants()) {
    total += VmHwmMb(s.pid);
  }
  return total;
}

double AgreementDeadline(const std::vector<WatchRecord>& watches, double bound_ms) {
  struct Pending {
    bool silent = false;
    bool fired = false;
    double first_ms = 0;
  };
  std::map<uint32_t, Pending> groups;
  for (const WatchRecord& w : watches) {
    Pending& g = groups[w.group];
    if (w.fires_ms.empty()) {
      g.silent = g.silent || w.must_agree;
    } else {
      g.first_ms = g.fired ? std::min(g.first_ms, w.fires_ms.front()) : w.fires_ms.front();
      g.fired = true;
    }
  }
  double deadline = -1;
  for (const auto& [id, g] : groups) {
    if (g.fired && g.silent) {
      deadline = std::max(deadline, g.first_ms + bound_ms);
    }
  }
  return deadline;
}

ContractReport CheckContract(const std::vector<WatchRecord>& watches, double bound_ms,
                             bool allow_false_positives) {
  ContractReport r;
  struct GroupTally {
    bool any_fire = false;
    bool unexpected_fire = false;
    bool silent_agreer = false;  // a must-agree watch that never fired
    int notified = 0;
    int live = 0;
    double first_ms = 0;
  };
  std::map<uint32_t, GroupTally> groups;
  auto where = [](const WatchRecord& w) {
    return "group " + std::to_string(w.group) + " member " + std::to_string(w.member);
  };
  for (const WatchRecord& w : watches) {
    GroupTally& g = groups[w.group];
    g.live += w.must_agree ? 1 : 0;
    if (!w.fires_ms.empty()) {
      g.first_ms = g.notified == 0 ? w.fires_ms.front() : std::min(g.first_ms, w.fires_ms.front());
      ++g.notified;
    }
    if (w.fires_ms.size() > 1) {
      r.duplicates += w.fires_ms.size() - 1;
      r.violations.push_back("duplicate notification: " + where(w));
    }
    if (w.fires_ms.empty()) {
      g.silent_agreer = g.silent_agreer || w.must_agree;
      if (w.expect_fire) {
        ++r.expected;
        ++r.missed;
        r.violations.push_back("missed notification: " + where(w));
      }
      continue;
    }
    g.any_fire = true;
    const double latency = w.fires_ms.front() - w.fault_ms;
    if (!w.expect_fire || latency < 0) {
      g.unexpected_fire = true;
      if (!allow_false_positives) {
        ++r.spurious;
        r.violations.push_back("spurious notification: " + where(w));
      }
    }
    if (!w.expect_fire) {
      continue;
    }
    ++r.expected;
    if (latency > bound_ms) {
      ++r.missed;
      r.violations.push_back("notification later than the bound: " + where(w));
      continue;
    }
    ++r.delivered;
    if (latency >= 0 && w.sample_latency) {
      r.latency_ms.push_back(latency);
    }
  }
  for (const auto& [id, g] : groups) {
    if (g.any_fire && g.silent_agreer) {
      ++r.partial;
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "partial notification: group %u: %d watches fired, %d live members, "
                    "first at %.3f ms",
                    id, g.notified, g.live, g.first_ms);
      r.violations.push_back(buf);
    }
    if (g.unexpected_fire && allow_false_positives) {
      ++r.false_positive_groups;
    }
  }
  return r;
}

bool ContractSelfTest(std::string* why) {
  auto rec = [](uint32_t g, bool expect, std::vector<double> fires) {
    WatchRecord w;
    w.group = g;
    w.member = g;
    w.expect_fire = expect;
    w.fault_ms = 100;
    w.fires_ms = std::move(fires);
    return w;
  };
  // One clean group, then one of each violation.
  const std::vector<WatchRecord> clean = {rec(0, true, {150}), rec(0, true, {160})};
  const std::vector<WatchRecord> dup = {rec(1, true, {140, 190})};
  const std::vector<WatchRecord> missing = {rec(2, true, {})};
  const std::vector<WatchRecord> spurious = {rec(3, false, {120})};
  std::vector<WatchRecord> partial = {rec(4, false, {120}), rec(4, false, {})};

  std::string fail;
  const ContractReport c = CheckContract(clean, 1000, false);
  if (!c.violations.empty() || c.delivered != 2) {
    fail += " clean group rejected;";
  }
  if (CheckContract(dup, 1000, true).duplicates != 1) {
    fail += " duplicate accepted;";
  }
  if (CheckContract(missing, 1000, true).missed != 1) {
    fail += " missing accepted;";
  }
  if (CheckContract(spurious, 1000, false).spurious != 1) {
    fail += " spurious accepted;";
  }
  // Even where false positives are allowed, agreement is not optional.
  if (CheckContract(partial, 1000, true).partial != 1) {
    fail += " partial accepted;";
  }
  if (why != nullptr) {
    *why = fail;
  }
  return fail.empty();
}

}  // namespace perfbench
