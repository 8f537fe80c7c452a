// sim_overlay_churn: the sharded simulator at thousands of nodes, where the
// engine and the overlay do nearly all the work.
//
// Schedule (every draw comes from the seed):
//   set-up    build the overlay `setups` times (LargeScale preset: 10 nodes
//             per machine, 4 shards); keep the last.
//   creates   `groups` groups of 5 on stable nodes through GroupService,
//             closed loop with `clients` concurrent creators. Half span one
//             of `victims` victim machines, half are controls that span none.
//   window    the top tenth of the nodes (whole machines) churns; the victim
//             machines are crashed one by one at even steps through the
//             first two thirds of the window. Churn then stops and the run
//             settles for `notify_bound_s`, so every notification in flight
//             lands before the contract is checked.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>

#include "bench.h"
#include "common/rng.h"
#include "probe.h"
#include "runtime/sharded_sim_cluster.h"
#include "service/group_service.h"
#include "sim_common.h"

namespace perfbench {

using fuse::Duration;
using fuse::FuseId;
using fuse::MsgCategory;

namespace {

struct Params {
  int nodes = 4000;
  int shards = 4;
  // The trace is a function of (seed, shards) only; the worker count is
  // settable (--threads) so the self-check and the threading study can
  // compare 1 and 2 threads on the same schedule.
  int threads = 1;
  int setups = 3;
  int groups = 2000;
  int clients = 8;
  int victims = 8;
  double window_s = 0;  // simulated seconds of churn: 90 per --seconds
  double uptime_s = 600;  // mean churn up-time
  double downtime_s = 120;
  double notify_bound_s = 300;

  explicit Params(const RunOptions& o) : threads(o.threads), window_s(90 * o.seconds) {}
};

fuse::ClusterConfig MakeConfig(const Params& p, uint64_t seed) {
  fuse::ClusterConfig cfg = fuse::ClusterConfig::LargeScale(p.nodes, seed);
  cfg.num_shards = p.shards;
  cfg.threads = p.threads;
  // No 300-500 ms T3 links: with them, whether a seed's few groups touch
  // one decides the create tail, which then measures the draw, not the code.
  cfg.topology.t3_fraction = 0;
  cfg.overlay.coalesce_pings = true;
  cfg.fuse.incremental_link_digest = true;
  cfg.fuse.coalesce_group_timers = true;
  return cfg;
}

struct Group {
  std::vector<size_t> members;  // root first
  int victim = -1;              // machine whose crash must be reported, or -1
  FuseId id;
  bool done = false;
  bool ok = false;
  double sent_ms = 0;
  double done_ms = 0;
};

}  // namespace

RunResult RunSimOverlayChurn(const RunOptions& opt) {
  const Params p(opt);
  RunResult r;
  const int per_machine = 10;
  const int machines = p.nodes / per_machine;
  const int churn_machines = std::max(1, machines / 10);
  const size_t churn_first = static_cast<size_t>(machines - churn_machines) * per_machine;
  const int stable_machines = machines - churn_machines;

  // --- set-up: build `setups` times, keep the last ---
  std::vector<double> setup_s;
  std::unique_ptr<fuse::ClusterHarness> cluster;
  for (int i = 0; i < p.setups; ++i) {
    cluster.reset();
    const int64_t t0 = Tracer::NowNs();
    cluster = fuse::MakeSimCluster(MakeConfig(p, opt.seed));
    Probe build(*cluster);
    build.Build();
    setup_s.push_back(static_cast<double>(Tracer::NowNs() - t0) * 1e-9);
  }
  fuse::ClusterHarness& c = *cluster;
  Probe probe(c);
  const int ring_violations = probe.CountRingViolations();
  if (ring_violations != 0) {
    r.violations.push_back("ring violations after Build: " + std::to_string(ring_violations));
  }
  const double avg_neighbors = probe.AvgDistinctNeighbors();
  const MsgSnap after_build = ReadMessages(c);

  // --- inputs from the seed ---
  // SkipNet routes by name without leaving the name range between source and
  // destination, and nodes are named in index order. Victims are drawn from
  // the upper half of the stable machines; a control group lives wholly
  // below the lowest victim, so its routes cross neither a victim nor a
  // churned machine. An affected group has four members anywhere in the
  // stable range off the victims and one on its victim.
  fuse::Rng rng(opt.seed * 0x9E3779B97F4A7C15ULL + 11);
  std::set<int> victim_set;
  while (static_cast<int>(victim_set.size()) < p.victims) {
    victim_set.insert(static_cast<int>(rng.UniformInt(stable_machines / 2, stable_machines - 1)));
  }
  std::vector<int> victims(victim_set.begin(), victim_set.end());
  rng.Shuffle(victims);
  const size_t control_limit = static_cast<size_t>(*victim_set.begin()) * per_machine;
  auto on_victim = [&victim_set, per_machine](size_t n) {
    return victim_set.contains(static_cast<int>(n) / per_machine);
  };
  auto pick_distinct = [&](size_t k, size_t limit) {
    std::set<size_t> chosen;
    while (chosen.size() < k) {
      const size_t n = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(limit) - 1));
      if (!on_victim(n)) {
        chosen.insert(n);
      }
    }
    std::vector<size_t> v(chosen.begin(), chosen.end());
    rng.Shuffle(v);
    return v;
  };
  std::vector<Group> groups(static_cast<size_t>(p.groups));
  for (size_t g = 0; g < groups.size(); ++g) {
    if (g % 2 == 0) {
      groups[g].victim = victims[(g / 2) % victims.size()];
      groups[g].members = pick_distinct(4, churn_first);
      groups[g].members.push_back(static_cast<size_t>(groups[g].victim * per_machine) +
                                  static_cast<size_t>(rng.UniformInt(0, per_machine - 1)));
    } else {
      groups[g].members = pick_distinct(5, control_limit);
    }
  }

  // --- timed phase ---
  const int64_t wall0 = Tracer::NowNs();
  const CpuTimes cpu0 = SelfCpu();
  const double thread_cpu0 = ThreadCpuSeconds();
  const double busy0 = probe.engine_busy_s();
  const double sys0 = probe.engine_sys_s();
  const EngineStats eng0 = ReadEngine(c, true);
  auto now_ms = [&c] { return c.env().Now().ToMillisF(); };

  // Creates through GroupService: closed loop, `clients` outstanding. The
  // admission window equals the client count, so each Pump admits at once.
  fuse::GroupServiceOptions sopts;
  sopts.max_inflight_creates = p.clients;
  fuse::GroupService svc(c, sopts);
  const MsgSnap before_creates = ReadMessages(c);
  size_t next = 0;
  size_t completed = 0;
  uint64_t pumps = 0;
  uint64_t admitted = 0;
  while (completed < groups.size()) {
    while (next - completed < static_cast<size_t>(p.clients) && next < groups.size()) {
      Group& g = groups[next++];
      g.sent_ms = now_ms();
      ScopedSpan s("service.Create");
      svc.Create(g.members[0], g.members,
                 [&g, &completed, now_ms](const fuse::Status& st, FuseId id) {
                   g.done = true;
                   g.ok = st.ok();
                   g.id = id;
                   g.done_ms = now_ms();
                   ++completed;
                 });
    }
    {
      ScopedSpan s("service.Pump");
      admitted += svc.Pump();
      ++pumps;
    }
    ScopedSpan s("service.Drain");
    const size_t target = completed + 1;
    if (!probe.Await([&] { return completed >= target; }, Duration::Minutes(5))) {
      r.violations.push_back("group creates stalled");
      break;
    }
  }
  const MsgSnap after_creates = ReadMessages(c);
  std::vector<double> create_ms;
  uint64_t create_failed = 0;
  for (const Group& g : groups) {
    if (g.done && g.ok) {
      create_ms.push_back(g.done_ms - g.sent_ms);
    } else {
      ++create_failed;
    }
  }

  // Watches on every member of every created group.
  std::vector<WatchRecord> watches;
  watches.reserve(groups.size() * 5);
  for (size_t gi = 0; gi < groups.size(); ++gi) {
    if (!groups[gi].ok) {
      continue;
    }
    for (const size_t m : groups[gi].members) {
      WatchRecord w;
      w.group = static_cast<uint32_t>(gi);
      w.member = static_cast<uint32_t>(m);
      watches.push_back(w);
    }
  }
  for (size_t w = 0; w < watches.size(); ++w) {
    probe.Watch(watches[w].member, groups[watches[w].group].id,
                [&watches, w, now_ms] { watches[w].fires_ms.push_back(now_ms()); });
  }

  // Churn window; victim k is crashed at step 2k+1 of 3 * victims steps.
  const MsgSnap window_start = ReadMessages(c);
  const double window_start_ms = now_ms();
  const int64_t window_wall0 = Tracer::NowNs();
  {
    ScopedSpan s("runtime.StartChurn");
    c.StartChurn(churn_first, static_cast<size_t>(p.nodes) - churn_first,
                 Duration::SecondsF(p.uptime_s), Duration::SecondsF(p.downtime_s));
  }
  const int steps = 3 * p.victims;
  const Duration step = Duration::SecondsF(p.window_s / steps);
  std::vector<double> crash_ms(static_cast<size_t>(machines), 0);
  double live_sum = 0;
  for (int k = 0; k < steps; ++k) {
    if (k % 2 == 1 && k / 2 < p.victims) {
      const int v = victims[static_cast<size_t>(k / 2)];
      crash_ms[static_cast<size_t>(v)] = now_ms();
      probe.CrashMachine(static_cast<size_t>(v));
    }
    probe.AdvanceFor(step);
    live_sum += static_cast<double>(probe.NumLiveNodes());
  }
  const MsgSnap window_end = ReadMessages(c);
  const double window_end_ms = now_ms();
  const double window_wall = static_cast<double>(Tracer::NowNs() - window_wall0) * 1e-9;
  {
    ScopedSpan s("runtime.StopChurn");
    c.StopChurn();
  }
  for (WatchRecord& w : watches) {
    const Group& g = groups[w.group];
    const bool dead = on_victim(w.member);
    w.expect_fire = g.victim >= 0 && !dead;
    w.must_agree = !dead;
    w.fault_ms = g.victim >= 0 ? crash_ms[static_cast<size_t>(g.victim)] : 0;
  }
  // Settle until every notification in flight had its bound to reach all
  // members (a false positive can start late in the settle).
  probe.AdvanceFor(Duration::SecondsF(p.notify_bound_s));
  for (int round = 0; round < 8; ++round) {
    const double until = AgreementDeadline(watches, p.notify_bound_s * 1000);
    if (until <= now_ms()) {
      break;
    }
    probe.AdvanceFor(Duration::MillisF(until - now_ms()));
  }
  const double mean_live = live_sum / steps;
  const FuseState fuse_state = ReadFuseState(probe);
  double service_bytes = 0;
  {
    ScopedSpan s("service.ApproxBytes");
    service_bytes = static_cast<double>(svc.ApproxServiceBytes());
  }

  const double run_rtt_us = probe.RunRttUs();
  const double timed_wall = static_cast<double>(Tracer::NowNs() - wall0) * 1e-9;
  const double timed_cpu = SelfCpu().total() - cpu0.total();
  const double controller_cpu = ThreadCpuSeconds() - thread_cpu0;
  const EngineStats eng1 = ReadEngine(c, true);
  const MsgSnap run_end = ReadMessages(c);

  // --- contract ---
  // Churn reshapes the routing tables under every group, so consistent
  // false positives are FUSE-legal here; they are counted, and agreement
  // still binds them.
  const ContractReport cr =
      CheckContract(watches, p.notify_bound_s * 1000, /*allow_false_positives=*/true);
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
  const MsgSnap win = window_end - window_start;
  r.E2E("setup_s", "s", Median(setup_s));
  r.E2E("throughput", "1/s", p.window_s / window_wall);
  r.E2E("create_p50_ms", "ms", cl.p50);
  r.E2E("create_tail_ms", "ms", cl.tail);
  r.E2E("notify_p50_ms", "ms", nl.p50);
  r.E2E("notify_tail_ms", "ms", nl.tail);
  r.E2E("msgs_per_node_s", "1/s", static_cast<double>(win.total) / mean_live / p.window_s);
  r.E2E("peak_rss_mb", "MB", SelfPeakRssMb());
  r.E2E("cpu_util", "s/s", timed_cpu / timed_wall);

  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "create latency (sim): n=%zu p50=%.3f ms p%g=%.3f ms; "
                "notify latency (sim): n=%zu p50=%.3f ms p%g=%.3f ms",
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
                "simdigest: create_p50=%.17g create_tail=%.17g notify_p50=%.17g "
                "notify_tail=%.17g msgs=%llu events=%llu live_sum=%.17g fp=%llu",
                cl.p50, cl.tail, nl.p50, nl.tail, static_cast<unsigned long long>(run_end.total),
                static_cast<unsigned long long>(eng1.executed - eng0.executed), live_sum,
                static_cast<unsigned long long>(cr.false_positive_groups));
  r.Note(buf);
  std::snprintf(buf, sizeof(buf),
                "churn window: %.0f sim s in %.3f wall s (%d threads), sim time %.3f-%.3f s, "
                "run ends at %.3f s; lookahead %lld us",
                p.window_s, window_wall, p.threads, window_start_ms / 1000,
                window_end_ms / 1000, now_ms() / 1000,
                static_cast<long long>(
                    static_cast<fuse::ShardedSimCluster&>(c).sim().lookahead().ToMicros()));
  r.Note(buf);

  // --- per layer ---
  const double busy = probe.engine_busy_s() - busy0;
  const uint64_t events = eng1.executed - eng0.executed;
  r.Layer("sim.events", "count", static_cast<double>(events));
  r.Layer("sim.events_per_wall_s", "1/s", busy > 0 ? static_cast<double>(events) / busy : 0);
  r.Layer("sim.busy_s", "s", busy);
  r.Layer("sim.sys_cpu_s", "s", probe.engine_sys_s() - sys0);
  r.Layer("sim.timers_scheduled", "count", static_cast<double>(eng1.scheduled - eng0.scheduled));
  r.Layer("sim.timers_cancelled", "count", static_cast<double>(eng1.cancelled - eng0.cancelled));
  r.Layer("sim.pending_timers", "count", static_cast<double>(eng1.pending));
  r.Layer("overlay.ping_msgs_per_node_s", "1/s",
          static_cast<double>(win[MsgCategory::kOverlayPing] + win[MsgCategory::kOverlayPingReply]) /
              mean_live / p.window_s);
  r.Layer("overlay.avg_neighbors", "count", avg_neighbors);
  r.Layer("overlay.join_msgs", "count", static_cast<double>(after_build[MsgCategory::kOverlayJoin]));
  std::set<uint32_t> notified;
  for (const WatchRecord& w : watches) {
    if (!w.fires_ms.empty()) {
      notified.insert(w.group);
    }
  }
  const size_t created = groups.size() - create_failed;
  const MsgSnap after_watch = run_end - after_creates;
  r.Layer("fuse.create_msgs_per_group", "count",
          created > 0 ? static_cast<double>(CreateMsgs(after_creates - before_creates)) /
                            static_cast<double>(created)
                      : 0);
  r.Layer("fuse.repair_msgs", "count", static_cast<double>(RepairMsgs(after_watch)));
  r.Layer("fuse.notify_msgs_per_group", "count",
          notified.empty() ? 0
                           : static_cast<double>(NotifyMsgs(after_watch)) /
                                 static_cast<double>(notified.size()));
  const size_t live_groups = created - notified.size();
  r.Layer("fuse.group_bytes", "B",
          live_groups > 0 ? fuse_state.group_bytes / static_cast<double>(live_groups) : 0);
  r.Layer("fuse.armed_timers", "count", fuse_state.armed_timers);
  r.Layer("fuse.false_positive_groups", "count", static_cast<double>(cr.false_positive_groups));
  r.Layer("service.admitted_per_pump", "count",
          pumps > 0 ? static_cast<double>(admitted) / static_cast<double>(pumps) : 0);
  r.Layer("service.bytes_per_group", "B",
          created > 0 ? service_bytes / static_cast<double>(created) : 0);
  r.Layer("runtime.run_rtt_us", "us", run_rtt_us);
  r.Layer("runtime.controller_cpu_s", "s", controller_cpu);
  return r;
}

}  // namespace perfbench
