#include "fuzz/fault_schedule.h"

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <sstream>

namespace fuse {

namespace {

struct OpNameEntry {
  FaultOp op;
  const char* name;
};

constexpr OpNameEntry kOpNames[] = {
    {FaultOp::kCrash, "crash"},
    {FaultOp::kRestart, "restart"},
    {FaultOp::kBlockPair, "block_pair"},
    {FaultOp::kUnblockPair, "unblock_pair"},
    {FaultOp::kBlockOneWay, "block_oneway"},
    {FaultOp::kUnblockOneWay, "unblock_oneway"},
    {FaultOp::kPartition, "partition"},
    {FaultOp::kHealPartitions, "heal_partitions"},
    {FaultOp::kLossBurst, "loss_burst"},
    {FaultOp::kSlowHost, "slow_host"},
    {FaultOp::kSlowLink, "slow_link"},
    {FaultOp::kClockSkew, "clock_skew"},
    {FaultOp::kReorderJitter, "reorder_jitter"},
    {FaultOp::kSignalFailure, "signal"},
    {FaultOp::kCrashMachine, "crash_machine"},
    {FaultOp::kChurnStart, "churn_start"},
    {FaultOp::kChurnStop, "churn_stop"},
};

constexpr const char* kExpectNames[] = {"auto", "must-fire", "silent"};

bool OpFromName(const char* name, FaultOp* out) {
  for (const auto& e : kOpNames) {
    if (std::strcmp(e.name, name) == 0) {
      *out = e.op;
      return true;
    }
  }
  return false;
}

bool ExpectFromName(const char* name, GroupExpect* out) {
  for (size_t i = 0; i < std::size(kExpectNames); ++i) {
    if (std::strcmp(kExpectNames[i], name) == 0) {
      *out = static_cast<GroupExpect>(i);
      return true;
    }
  }
  return false;
}

void AppendIndexList(const std::vector<uint32_t>& list, std::string* s) {
  if (list.empty()) {
    *s += '-';
    return;
  }
  char num[16];
  for (size_t i = 0; i < list.size(); ++i) {
    if (i > 0) {
      *s += ',';
    }
    std::snprintf(num, sizeof(num), "%u", list[i]);
    *s += num;
  }
}

// Parses the rest of a line: "-" (empty) or a comma-separated list of node
// indices of any length.
bool ParseIndexList(const char* p, std::vector<uint32_t>* out) {
  if (std::strcmp(p, "-") == 0) {
    return true;
  }
  while (true) {
    // strtoul would also take a sign or leading blanks: only digits count.
    if (std::isdigit(static_cast<unsigned char>(*p)) == 0) {
      return false;
    }
    char* end = nullptr;
    const unsigned long v = std::strtoul(p, &end, 10);
    if (v > UINT32_MAX) {
      return false;
    }
    out->push_back(static_cast<uint32_t>(v));
    if (*end == '\0') {
      return true;
    }
    if (*end != ',') {
      return false;
    }
    p = end + 1;
  }
}

// `group <expect> <m,m,...>`: a non-empty member list without duplicates.
bool ParseGroupLine(const std::string& line, GroupSpec* out) {
  char expect[16];
  int list_at = 0;
  if (std::sscanf(line.c_str(), "group %15s %n", expect, &list_at) != 1 || list_at == 0 ||
      !ExpectFromName(expect, &out->expect) || line.compare(list_at, std::string::npos, "-") == 0 ||
      !ParseIndexList(line.c_str() + list_at, &out->members)) {
    return false;
  }
  std::vector<uint32_t> sorted = out->members;
  std::sort(sorted.begin(), sorted.end());
  return std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end();
}

// Operand rules for the ops the generator never draws: a machine crash
// names one machine, churn names a non-empty node range with positive mean
// up/down times, churn_stop takes nothing; setup clauses run untimed.
bool ClauseWellFormed(const FaultClause& c) {
  if (c.setup && c.at_us != 0) {
    return false;
  }
  switch (c.op) {
    case FaultOp::kCrashMachine:
      return c.b == 0 && c.dur_us == 0 && c.param == 0.0 && c.group.empty();
    case FaultOp::kChurnStart:
      return c.b >= 1 && c.dur_us > 0 && c.param > 0.0 && c.group.empty();
    case FaultOp::kChurnStop:
      return c.a == 0 && c.b == 0 && c.dur_us == 0 && c.param == 0.0 && c.group.empty();
    default:
      return true;
  }
}

}  // namespace

const char* GroupExpectName(GroupExpect e) {
  const size_t i = static_cast<size_t>(e);
  return i < std::size(kExpectNames) ? kExpectNames[i] : "unknown";
}

const char* FaultOpName(FaultOp op) {
  for (const auto& e : kOpNames) {
    if (e.op == op) {
      return e.name;
    }
  }
  return "unknown";
}

std::string FaultSchedule::ToText() const {
  std::string s;
  char line[256];
  std::snprintf(line, sizeof(line), "fuse-fuzz-schedule v1\nseed %" PRIu64 "\nnodes %d\ngroups %d\n",
                seed, num_nodes, num_groups);
  s += line;
  for (const GroupSpec& g : explicit_groups) {
    s += "group ";
    s += GroupExpectName(g.expect);
    s += ' ';
    AppendIndexList(g.members, &s);
    s += '\n';
  }
  for (const FaultClause& c : clauses) {
    std::snprintf(line, sizeof(line),
                  "%s%s at_us=%" PRId64 " a=%u b=%u dur_us=%" PRId64 " param=%.17g group=",
                  c.setup ? "setup " : "", FaultOpName(c.op), c.at_us, c.a, c.b, c.dur_us,
                  c.param);
    s += line;
    AppendIndexList(c.group, &s);
    s += '\n';
  }
  return s;
}

bool FaultSchedule::FromText(const std::string& text, FaultSchedule* out) {
  FaultSchedule s;
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "fuse-fuzz-schedule v1") {
    return false;
  }
  if (!std::getline(in, line) || std::sscanf(line.c_str(), "seed %" SCNu64, &s.seed) != 1) {
    return false;
  }
  if (!std::getline(in, line) || std::sscanf(line.c_str(), "nodes %d", &s.num_nodes) != 1 ||
      s.num_nodes < 1 || s.num_nodes > 4096) {
    return false;
  }
  if (!std::getline(in, line) || std::sscanf(line.c_str(), "groups %d", &s.num_groups) != 1 ||
      s.num_groups < 0 || s.num_groups > 1024) {
    return false;
  }
  while (std::getline(in, line)) {
    line.erase(line.find_last_not_of(" \t\r") + 1);
    if (line.empty()) {
      continue;
    }
    if (line.rfind("group ", 0) == 0) {
      GroupSpec g;
      if (!ParseGroupLine(line, &g)) {
        return false;
      }
      s.explicit_groups.push_back(std::move(g));
      continue;
    }
    FaultClause c;
    const char* body = line.c_str();
    if (line.rfind("setup ", 0) == 0) {
      c.setup = true;
      body += 6;
    }
    char opname[32];
    int list_at = 0;
    const int n = std::sscanf(body,
                              "%31s at_us=%" SCNd64 " a=%u b=%u dur_us=%" SCNd64
                              " param=%lg group=%n",
                              opname, &c.at_us, &c.a, &c.b, &c.dur_us, &c.param, &list_at);
    if (n != 6 || list_at == 0 || !OpFromName(opname, &c.op) ||
        !ParseIndexList(body + list_at, &c.group) || !ClauseWellFormed(c)) {
      return false;
    }
    s.clauses.push_back(std::move(c));
  }
  *out = std::move(s);
  return true;
}

namespace {

// One grammar production may expand to an onset clause plus a paired healing
// clause later in the window.
constexpr int64_t kWindowUs = 4LL * 60 * 1000 * 1000;  // clause times in [0, 4 min)

int64_t DrawTime(Rng& rng) { return rng.UniformInt(0, kWindowUs - 1); }

// A healing time strictly after `at`, still inside the window when possible.
int64_t DrawHealTime(Rng& rng, int64_t at) {
  return at + rng.UniformInt(10 * 1000 * 1000, kWindowUs);  // 10 s .. window later
}

}  // namespace

FaultSchedule GenerateSchedule(uint64_t seed) {
  Rng rng(seed ^ 0x5ca1ab1e0ddba11ULL);
  FaultSchedule s;
  s.seed = seed;
  s.num_nodes = static_cast<int>(rng.UniformInt(6, 10));
  s.num_groups = static_cast<int>(rng.UniformInt(1, 3));
  // A slice of empty schedules keeps the "no notification while healthy"
  // half of the oracle honest.
  if (rng.Bernoulli(0.08)) {
    return s;
  }
  const int productions = static_cast<int>(rng.UniformInt(1, 5));
  auto node = [&] { return static_cast<uint32_t>(rng.UniformInt(0, s.num_nodes - 1)); };
  for (int i = 0; i < productions; ++i) {
    const int64_t weight = rng.UniformInt(0, 99);
    FaultClause c;
    c.at_us = DrawTime(rng);
    if (weight < 25) {
      // Crash, often with a paired restart (sometimes instant — the rejoin
      // wart's regression pressure lives here).
      c.op = FaultOp::kCrash;
      c.a = node();
      const bool restart = rng.Bernoulli(0.6);
      const bool instant = restart && rng.Bernoulli(0.3);
      FaultClause r;
      if (restart) {
        r.op = FaultOp::kRestart;
        r.a = c.a;
        r.at_us = instant ? c.at_us : DrawHealTime(rng, c.at_us);
      }
      s.clauses.push_back(std::move(c));
      if (restart) {
        s.clauses.push_back(std::move(r));
      }
    } else if (weight < 40) {
      // Partition a random subset away; heal about half the time.
      c.op = FaultOp::kPartition;
      const size_t k = static_cast<size_t>(rng.UniformInt(1, s.num_nodes - 1));
      for (size_t idx : rng.SampleIndices(static_cast<size_t>(s.num_nodes), k)) {
        c.group.push_back(static_cast<uint32_t>(idx));
      }
      std::sort(c.group.begin(), c.group.end());
      const bool heal = rng.Bernoulli(0.5);
      FaultClause h;
      if (heal) {
        h.op = FaultOp::kHealPartitions;
        h.at_us = DrawHealTime(rng, c.at_us);
      }
      s.clauses.push_back(std::move(c));
      if (heal) {
        s.clauses.push_back(std::move(h));
      }
    } else if (weight < 50) {
      // Symmetric pair block (intransitive connectivity).
      c.op = FaultOp::kBlockPair;
      c.a = node();
      do {
        c.b = node();
      } while (c.b == c.a && s.num_nodes > 1);
      const bool heal = rng.Bernoulli(0.5);
      FaultClause h;
      if (heal) {
        h.op = FaultOp::kUnblockPair;
        h.a = c.a;
        h.b = c.b;
        h.at_us = DrawHealTime(rng, c.at_us);
      }
      s.clauses.push_back(std::move(c));
      if (heal) {
        s.clauses.push_back(std::move(h));
      }
    } else if (weight < 60) {
      // Asymmetric (one-way) block.
      c.op = FaultOp::kBlockOneWay;
      c.a = node();
      do {
        c.b = node();
      } while (c.b == c.a && s.num_nodes > 1);
      const bool heal = rng.Bernoulli(0.5);
      FaultClause h;
      if (heal) {
        h.op = FaultOp::kUnblockOneWay;
        h.a = c.a;
        h.b = c.b;
        h.at_us = DrawHealTime(rng, c.at_us);
      }
      s.clauses.push_back(std::move(c));
      if (heal) {
        s.clauses.push_back(std::move(h));
      }
    } else if (weight < 70) {
      // Timed loss burst, scoped to one node or everyone.
      c.op = FaultOp::kLossBurst;
      c.a = rng.Bernoulli(0.3) ? kAllNodes : node();
      c.dur_us = rng.UniformInt(20 * 1000 * 1000, 120 * 1000 * 1000);  // 20 s .. 2 min
      c.param = rng.UniformDouble(0.3, 0.95);
      s.clauses.push_back(std::move(c));
    } else if (weight < 78) {
      // Slow-but-alive host.
      c.op = FaultOp::kSlowHost;
      c.a = node();
      c.param = rng.UniformDouble(50.0, 2000.0);  // extra ms per message
      s.clauses.push_back(std::move(c));
    } else if (weight < 85) {
      // Slow link (one direction).
      c.op = FaultOp::kSlowLink;
      c.a = node();
      do {
        c.b = node();
      } while (c.b == c.a && s.num_nodes > 1);
      c.param = rng.UniformDouble(100.0, 4000.0);
      s.clauses.push_back(std::move(c));
    } else if (weight < 92) {
      // Clock skew: timers run fast or slow.
      c.op = FaultOp::kClockSkew;
      c.a = node();
      c.param = rng.Bernoulli(0.5) ? rng.UniformDouble(1.1, 2.5)   // fast
                                   : rng.UniformDouble(0.4, 0.9);  // slow
      s.clauses.push_back(std::move(c));
    } else if (weight < 96) {
      // Message reordering via random extra delay.
      c.op = FaultOp::kReorderJitter;
      c.a = rng.Bernoulli(0.4) ? kAllNodes : node();
      c.param = rng.UniformDouble(20.0, 500.0);  // max extra ms
      s.clauses.push_back(std::move(c));
    } else {
      // Explicit application-level signal on a group.
      c.op = FaultOp::kSignalFailure;
      c.a = static_cast<uint32_t>(rng.UniformInt(0, s.num_groups - 1));
      s.clauses.push_back(std::move(c));
    }
  }
  std::stable_sort(s.clauses.begin(), s.clauses.end(),
                   [](const FaultClause& x, const FaultClause& y) { return x.at_us < y.at_us; });
  return s;
}

}  // namespace fuse
