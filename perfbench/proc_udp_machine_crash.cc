// proc_udp_machine_crash: 64 nodes in 4 worker processes over the UDP
// datagram transport, on wall-clock timers (FastProtocol constants). The only
// workload on real sockets: transport batching and retransmits, the workers'
// epoll loops and the control protocol do the work; the simulator is not
// involved.
//
// Schedule (every draw comes from the seed):
//   set-up    start the deployment and build the overlay `setups` times;
//             keep the last.
//   quiet     `quiet_s` wall seconds with no application activity: the
//             steady-state message load.
//   cycles    one per worker, in a seed-shuffled order. Each sends creates
//             of 5-member groups as an open loop at `rate` per second for
//             `create_s` seconds (half span the cycle's victim worker, half
//             avoid it), arms watches on every member, SIGKILLs the victim,
//             waits for the notifications, and restarts it.
// Create latency is timed from each create's due time, so a stalled
// generator shows up as latency; bench.gen_lag_ms reports how late it ran.
#if defined(__linux__)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "probe.h"
#include "runtime/process_cluster.h"

namespace perfbench {

using fuse::Duration;
using fuse::FuseId;

namespace {

struct Params {
  int nodes = 64;
  int workers = 4;
  int setups = 3;
  double rate = 50;    // creates per second, open loop
  double create_s = 0; // create phase of one cycle: 0.2 s per --seconds
  double quiet_s = 4;
  double notify_bound_s = 5;
  double grace_s = 0.5;

  explicit Params(const RunOptions& o) : create_s(0.2 * o.seconds) {}
};

fuse::ProcessClusterConfig MakeConfig(const Params& p, uint64_t seed) {
  fuse::ProcessClusterConfig cfg = fuse::ProcessClusterConfig::FastProtocol(p.nodes, seed);
  cfg.num_workers = p.workers;
  cfg.transport = fuse::TransportKind::kUdp;
  cfg.overlay.coalesce_pings = true;
  cfg.fuse.incremental_link_digest = true;
  cfg.fuse.coalesce_group_timers = true;
  return cfg;
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// Transport counters summed over workers, surviving worker restarts: a
// worker whose counter went backwards restarted, and its new value is all
// new traffic.
class TransportTally {
 public:
  void Read(fuse::ProcessCluster& c) {
    ScopedSpan span("transport.Counters");
    const auto by_machine = c.TransportCountersByMachine();
    last_.resize(by_machine.size());
    for (size_t m = 0; m < by_machine.size(); ++m) {
      for (const auto& [name, value] : by_machine[m]) {
        const uint64_t prev = last_[m].contains(name) ? last_[m][name] : 0;
        if (started_) {
          total_[name] += value >= prev ? value - prev : value;
        }
        last_[m][name] = value;
      }
    }
    started_ = true;
  }
  void Reset() { total_.clear(); }
  double Get(const std::string& name) const {
    const auto it = total_.find(name);
    return it == total_.end() ? 0 : static_cast<double>(it->second);
  }

 private:
  bool started_ = false;
  std::vector<std::map<std::string, uint64_t>> last_;
  std::map<std::string, uint64_t> total_;
};

struct Group {
  std::vector<size_t> members;  // root first
  FuseId id;
  bool done = false;
  bool ok = false;
  double due_ms = 0;
  double done_ms = 0;
};

}  // namespace

RunResult RunProcUdpMachineCrash(const RunOptions& opt) {
  const Params p(opt);
  RunResult r;
  const auto epoch = std::chrono::steady_clock::now();
  auto now_ms = [epoch] {
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - epoch)
        .count();
  };

  // --- set-up ---
  std::vector<double> setup_s;
  std::unique_ptr<fuse::ProcessCluster> cluster;
  for (int i = 0; i < p.setups; ++i) {
    cluster.reset();
    const auto t0 = std::chrono::steady_clock::now();
    cluster = std::make_unique<fuse::ProcessCluster>(MakeConfig(p, opt.seed));
    Probe build(*cluster);
    build.Build();
    setup_s.push_back(SecondsSince(t0));
  }
  fuse::ProcessCluster& c = *cluster;
  Probe probe(c);
  const int per_worker = p.nodes / p.workers;
  auto worker_of = [per_worker](size_t n) { return static_cast<int>(n) / per_worker; };

  fuse::Rng rng(opt.seed * 0x9E3779B97F4A7C15ULL + 37);
  std::vector<int> victims(static_cast<size_t>(p.workers));
  for (int w = 0; w < p.workers; ++w) {
    victims[static_cast<size_t>(w)] = w;
  }
  rng.Shuffle(victims);
  auto pick = [&](size_t k, int victim, bool spans_victim) {
    std::set<size_t> chosen;
    std::vector<size_t> v;
    if (spans_victim) {
      const size_t n = static_cast<size_t>(victim * per_worker +
                                           rng.UniformInt(0, per_worker - 1));
      chosen.insert(n);
    }
    while (chosen.size() < k) {
      const size_t n = static_cast<size_t>(rng.UniformInt(0, p.nodes - 1));
      if (worker_of(n) != victim) {
        chosen.insert(n);
      }
    }
    v.assign(chosen.begin(), chosen.end());
    rng.Shuffle(v);
    // The root never sits on the victim: its crash must reach the group
    // through the members' liveness checks, like any member's.
    std::partition(v.begin(), v.end(), [&](size_t n) { return worker_of(n) != victim; });
    return v;
  };

  // --- timed phase ---
  const auto wall0 = std::chrono::steady_clock::now();
  const double self_cpu0 = SelfCpu().total();
  const double tree_cpu0 = TreeCpuSeconds();
  TransportTally tally;
  tally.Read(c);

  // Steady-state load and CPU with nothing but liveness maintenance running,
  // after a second for the overlay's post-build leaf exchanges to settle.
  probe.AdvanceFor(Duration::Seconds(1));
  tally.Read(c);
  tally.Reset();
  const double quiet_cpu0 = TreeCpuSeconds();
  const auto quiet0 = std::chrono::steady_clock::now();
  probe.AdvanceFor(Duration::SecondsF(p.quiet_s));
  tally.Read(c);
  const double quiet_cpu = TreeCpuSeconds() - quiet_cpu0;
  const double quiet_wall = SecondsSince(quiet0);
  const double quiet_records =
      tally.Get("transport_records_sent") - tally.Get("retransmits_total");
  const double msgs_per_node_s = quiet_records / p.nodes / quiet_wall;

  // Group state is written by completions and fires on the controller's
  // loop thread; this thread reads it only inside Run/Await.
  std::vector<Group> groups;
  groups.reserve(static_cast<size_t>(p.workers * p.rate * p.create_s) + 8);
  std::vector<WatchRecord> watches;
  std::vector<double> crash_ms(static_cast<size_t>(p.workers), -1);
  std::vector<double> gen_lag_ms;
  std::vector<double> rejoin_s;
  double create_wall = 0;
  uint64_t creates_done = 0;
  const int per_cycle = std::max(2, static_cast<int>(p.rate * p.create_s));
  const double interval_ms = 1000.0 / p.rate;

  for (const int victim : victims) {
    // Open-loop creates.
    const size_t first = groups.size();
    for (int k = 0; k < per_cycle; ++k) {
      Group g;
      g.members = pick(5, victim, k % 2 == 0);
      groups.push_back(std::move(g));
    }
    const auto cycle0 = std::chrono::steady_clock::now();
    const double cycle0_ms = now_ms();
    for (int k = 0; k < per_cycle; ++k) {
      Group& g = groups[first + static_cast<size_t>(k)];
      g.due_ms = cycle0_ms + k * interval_ms;
      const double wait_ms = g.due_ms - now_ms();
      if (wait_ms > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(wait_ms));
      }
      gen_lag_ms.push_back(now_ms() - g.due_ms);
      probe.CreateGroup(g.members[0], g.members, [&g, now_ms](const fuse::Status& s, FuseId id) {
        g.done = true;
        g.ok = s.ok();
        g.id = id;
        g.done_ms = now_ms();
      });
    }
    const bool created = probe.Await(
        [&] {
          for (size_t i = first; i < groups.size(); ++i) {
            if (!groups[i].done) {
              return false;
            }
          }
          return true;
        },
        Duration::Seconds(10));
    create_wall += SecondsSince(cycle0);
    if (!created) {
      r.violations.push_back("group creates did not complete");
    }

    // Watches on every member of this cycle's groups.
    std::vector<size_t> ok_groups;
    probe.Run([&] {
      for (size_t i = first; i < groups.size(); ++i) {
        if (groups[i].ok) {
          ok_groups.push_back(i);
          ++creates_done;
        }
      }
    });
    for (const size_t gi : ok_groups) {
      for (const size_t m : groups[gi].members) {
        WatchRecord w;
        w.group = static_cast<uint32_t>(gi);
        w.member = static_cast<uint32_t>(m);
        watches.push_back(w);
      }
    }
    for (size_t w = 0; w < watches.size(); ++w) {
      if (watches[w].group < first) {
        continue;
      }
      probe.Watch(watches[w].member, groups[watches[w].group].id,
                  [&watches, w, now_ms] { watches[w].fires_ms.push_back(now_ms()); });
    }

    // Crash, wait for every live member of every live group that spans the
    // victim, then restart it.
    tally.Read(c);
    crash_ms[static_cast<size_t>(victim)] = now_ms();
    probe.CrashMachine(static_cast<size_t>(victim));
    std::vector<size_t> due;
    for (size_t w = 0; w < watches.size(); ++w) {
      const Group& g = groups[watches[w].group];
      const bool spans = std::any_of(g.members.begin(), g.members.end(),
                                     [&](size_t n) { return worker_of(n) == victim; });
      if (spans && worker_of(watches[w].member) != victim) {
        due.push_back(w);
      }
    }
    probe.Await(
        [&] {
          return std::all_of(due.begin(), due.end(),
                             [&](size_t w) { return !watches[w].fires_ms.empty(); });
        },
        Duration::SecondsF(p.notify_bound_s));
    probe.AdvanceFor(Duration::SecondsF(p.grace_s));
    const auto t_restart = std::chrono::steady_clock::now();
    probe.RestartMachine(static_cast<size_t>(victim));
    rejoin_s.push_back(SecondsSince(t_restart));
    tally.Read(c);
  }
  // --- contract ---
  // A group's fault is the first crash of a worker hosting a member after
  // the group was created; members on that worker die with it. Machine
  // crashes break overlay routes through the dead worker's name range, so
  // consistent false positives are FUSE-legal here.
  auto snapshot = [&] {
    std::vector<WatchRecord> snap;
    probe.Run([&] { snap = watches; });
    std::vector<double> done_ms(groups.size());
    probe.Run([&] {
      for (size_t i = 0; i < groups.size(); ++i) {
        done_ms[i] = groups[i].done_ms;
      }
    });
    for (WatchRecord& w : snap) {
      const Group& g = groups[w.group];
      double fault = -1;
      int fault_worker = -1;
      for (const size_t n : g.members) {
        const double t = crash_ms[static_cast<size_t>(worker_of(n))];
        if (t > done_ms[w.group] && (fault < 0 || t < fault)) {
          fault = t;
          fault_worker = worker_of(n);
        }
      }
      const bool dies = fault_worker >= 0 && worker_of(w.member) == fault_worker;
      const double own_crash = crash_ms[static_cast<size_t>(worker_of(w.member))];
      w.expect_fire = fault >= 0 && !dies;
      w.fault_ms = fault;
      // A member whose worker was crashed (in this group's lifetime) lost its
      // watch with the process; agreement binds only members still up.
      w.must_agree = !(own_crash > done_ms[w.group]);
    }
    return snap;
  };
  // Wait until every notification in flight had its bound to reach all
  // members (a false positive can start just before the last restart).
  std::vector<WatchRecord> final_watches = snapshot();
  for (int round = 0; round < 8; ++round) {
    const double until = AgreementDeadline(final_watches, p.notify_bound_s * 1000);
    if (until <= now_ms()) {
      break;
    }
    probe.AdvanceFor(Duration::MillisF(until - now_ms()));
    final_watches = snapshot();
  }
  const double run_rtt_us = probe.RunRttUs();
  const double timed_wall = SecondsSince(wall0);
  const double self_cpu = SelfCpu().total() - self_cpu0;
  const double tree_cpu = TreeCpuSeconds() - tree_cpu0;
  const double peak_rss = TreePeakRssMb();

  std::vector<double> create_ms;
  uint64_t create_failed = 0;
  probe.Run([&] {
    for (const Group& g : groups) {
      if (g.done && g.ok) {
        create_ms.push_back(g.done_ms - g.due_ms);
      } else {
        ++create_failed;
      }
    }
  });
  const ContractReport cr =
      CheckContract(final_watches, p.notify_bound_s * 1000, /*allow_false_positives=*/true);
  for (const std::string& v : cr.violations) {
    r.violations.push_back(v);
  }
  if (create_failed > 0) {
    r.violations.push_back(std::to_string(create_failed) +
                           " group creates failed with no fault injected");
  }
  r.attempted = groups.size() + cr.expected;
  r.failed = create_failed + cr.missed;

  // --- end-to-end ---
  const LatencySummary cl = Summarize(create_ms);
  const LatencySummary nl = Summarize(cr.latency_ms);
  r.E2E("setup_s", "s", Median(setup_s));
  r.E2E("throughput", "1/s", static_cast<double>(creates_done) / create_wall);
  r.E2E("create_p50_ms", "ms", cl.p50);
  r.E2E("create_tail_ms", "ms", cl.tail);
  r.E2E("notify_p50_ms", "ms", nl.p50);
  r.E2E("notify_tail_ms", "ms", nl.tail);
  r.E2E("msgs_per_node_s", "1/s", msgs_per_node_s);
  r.E2E("peak_rss_mb", "MB", peak_rss);
  // Steady-state cost of the deployment: the crash cycles fork and rejoin
  // workers, whose start-up CPU would swamp it.
  r.E2E("cpu_util", "s/s", quiet_cpu / quiet_wall);

  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "create latency (wall, from due time): n=%zu p50=%.3f ms p%g=%.3f ms; "
                "notify latency (wall): n=%zu p50=%.3f ms p%g=%.3f ms",
                cl.count, cl.p50, cl.tail_pct, cl.tail, nl.count, nl.p50, nl.tail_pct, nl.tail);
  r.Note(buf);
  std::snprintf(buf, sizeof(buf),
                "contract: expected=%llu delivered=%llu missed=%llu duplicate=%llu "
                "spurious=%llu partial=%llu false_positive_groups=%llu create_failed=%llu",
                static_cast<unsigned long long>(cr.expected),
                static_cast<unsigned long long>(cr.delivered),
                static_cast<unsigned long long>(cr.missed),
                static_cast<unsigned long long>(cr.duplicates),
                static_cast<unsigned long long>(cr.spurious),
                static_cast<unsigned long long>(cr.partial),
                static_cast<unsigned long long>(cr.false_positive_groups),
                static_cast<unsigned long long>(create_failed));
  r.Note(buf);
  std::snprintf(buf, sizeof(buf),
                "timed phase %.3f wall s; rejoin after machine restart: median %.3f s over %zu "
                "cycles",
                timed_wall, Median(rejoin_s), rejoin_s.size());
  r.Note(buf);
  // Figures only this workload has, so they are printed, not reported as
  // per-layer metrics (those are common to the workloads BENCHMARK.json runs).
  const double records = tally.Get("transport_records_sent");
  auto per_record = [records](double v) { return records > 0 ? v / records : 0; };
  const double datagrams = tally.Get("transport_datagrams_sent");
  double lag_sum = 0;
  for (const double l : gen_lag_ms) {
    lag_sum += l;
  }
  std::snprintf(buf, sizeof(buf),
                "transport: send_syscalls_per_msg=%.4f recv_syscalls_per_msg=%.4f "
                "records_per_datagram=%.4f retransmit_ratio=%.4f dedup_ratio=%.6f; "
                "worker_cpu_s=%.3f; generator lag mean %.3f ms",
                per_record(tally.Get("transport_send_syscalls")),
                per_record(tally.Get("transport_recv_syscalls")),
                datagrams > 0 ? records / datagrams : 0,
                per_record(tally.Get("retransmits_total")),
                per_record(tally.Get("acks_deduped_total")), tree_cpu - self_cpu,
                gen_lag_ms.empty() ? 0 : lag_sum / gen_lag_ms.size());
  r.Note(buf);

  // --- per layer (what the controller cannot observe reads 0) ---
  r.Layer("sim.events", "count", 0);
  r.Layer("sim.events_per_wall_s", "1/s", 0);
  r.Layer("sim.busy_s", "s", probe.engine_busy_s());
  r.Layer("sim.sys_cpu_s", "s", probe.engine_sys_s());
  r.Layer("sim.timers_scheduled", "count", 0);
  r.Layer("sim.timers_cancelled", "count", 0);
  r.Layer("sim.pending_timers", "count", 0);
  r.Layer("overlay.ping_msgs_per_node_s", "1/s", 0);
  r.Layer("overlay.avg_neighbors", "count", 0);
  r.Layer("overlay.join_msgs", "count", 0);
  r.Layer("fuse.create_msgs_per_group", "count", 0);
  r.Layer("fuse.repair_msgs", "count", 0);
  r.Layer("fuse.notify_msgs_per_group", "count", 0);
  r.Layer("fuse.group_bytes", "B", 0);
  r.Layer("fuse.armed_timers", "count", 0);
  r.Layer("fuse.false_positive_groups", "count", static_cast<double>(cr.false_positive_groups));
  r.Layer("service.admitted_per_pump", "count", 0);
  r.Layer("service.bytes_per_group", "B", 0);
  r.Layer("runtime.run_rtt_us", "us", run_rtt_us);
  r.Layer("runtime.controller_cpu_s", "s", self_cpu);
  return r;
}

}  // namespace perfbench

#else  // !__linux__

#include "bench.h"

namespace perfbench {

RunResult RunProcUdpMachineCrash(const RunOptions&) {
  RunResult r;
  r.violations.push_back("proc_udp_machine_crash needs Linux (fork, epoll)");
  return r;
}

}  // namespace perfbench

#endif  // __linux__
