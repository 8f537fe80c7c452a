// sim_groups_service: a hundred thousand groups at a time through GroupService on
// the single-threaded simulator with 16 nodes, where the FUSE create and
// liveness paths and the service's tables do the work; the overlay and the
// engine are small.
//
// Schedule (every draw comes from the seed):
//   set-up    build 16-node overlays, each with its own topology: one per
//             round, and at least `setups`.
//   creates   `rounds` rounds, each on its own cluster, of `groups` groups
//             of 2-4 members, closed loop: the generator keeps two admission
//             windows' worth of creates queued or in flight and waits
//             whenever it has that many. Every round but the last frees its
//             cluster when its creates are done.
//   idle      on the last round's cluster, `idle_s` simulated seconds with
//             every group live.
//   signals   `signals` sampled groups each get a Signal from their root and
//             a replacement create; `controls` other sampled groups are
//             watched and must stay silent.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>

#include "bench.h"
#include "common/rng.h"
#include "probe.h"
#include "service/group_service.h"
#include "sim_common.h"

namespace perfbench {

using fuse::Duration;
using fuse::FuseId;
using fuse::MsgCategory;

namespace {

struct Params {
  int nodes = 16;
  int setups = 5;
  // Creates per round: 20,000 per --seconds, at most 100,000. Rounds: one
  // per four --seconds, at least one.
  long groups = 0;
  int rounds = 1;
  int window = 1024;   // admission window (max in-flight creates)
  double idle_s = 60;
  int signals = 2000;
  int controls = 1000;
  double notify_bound_s = 60;

  explicit Params(const RunOptions& o)
      : groups(std::min(100000L, static_cast<long>(20000 * o.seconds))),
        rounds(std::max(1, static_cast<int>(o.seconds / 4))) {}
};

fuse::ClusterConfig MakeConfig(const Params& p, uint64_t seed) {
  fuse::ClusterConfig cfg = fuse::ClusterConfig::LargeScale(p.nodes, seed);
  // One node per machine, each behind its own router, and no 300-500 ms T3
  // links: latencies then spread over all 120 node pairs instead of taking
  // the one or two values a 2-machine placement gives.
  cfg.hosts_per_machine = 1;
  cfg.topology.t3_fraction = 0;
  cfg.overlay.coalesce_pings = true;
  cfg.fuse.incremental_link_digest = true;
  cfg.fuse.coalesce_group_timers = true;
  return cfg;
}

// Drives creates through one cluster's GroupService, recording every
// create's latency and failure in the run-wide tallies.
struct Creator {
  const Params& p;
  fuse::SimCluster& c;
  Probe& probe;
  fuse::GroupService& svc;
  fuse::Rng& rng;
  std::vector<double>& create_ms;
  uint64_t& failed;
  uint64_t pumps = 0;
  uint64_t admitted = 0;

  double NowMs() const { return c.env().Now().ToMillisF(); }

  std::vector<size_t> DrawMembers() {
    const int size = static_cast<int>(rng.UniformInt(2, 4));
    std::set<size_t> chosen;
    while (static_cast<int>(chosen.size()) < size) {
      chosen.insert(static_cast<size_t>(rng.UniformInt(0, p.nodes - 1)));
    }
    std::vector<size_t> v(chosen.begin(), chosen.end());
    rng.Shuffle(v);
    return v;
  }

  void Create(const std::vector<size_t>& members) {
    const double t0 = NowMs();
    ScopedSpan s("service.Create");
    svc.Create(members[0], members, [this, t0](const fuse::Status& st, FuseId) {
      if (st.ok()) {
        create_ms.push_back(NowMs() - t0);
      } else {
        ++failed;
      }
    });
  }

  // Until at most `low` creates are queued or in flight: admit what the
  // window allows, then run the engine until half a window completed.
  bool DrainTo(size_t low) {
    const size_t half = static_cast<size_t>(p.window) / 2;
    while (svc.NumPendingCreates() > low) {
      {
        ScopedSpan s("service.Pump");
        admitted += svc.Pump();
        ++pumps;
      }
      ScopedSpan s("service.Drain");
      const size_t pending = svc.NumPendingCreates();
      const size_t target = std::max(low, pending > half ? pending - half : 0);
      if (!probe.Await([this, target] { return svc.NumPendingCreates() <= target; },
                       Duration::Minutes(10))) {
        return false;
      }
    }
    return true;
  }

  // The bulk phase: `p.groups` creates in a closed loop that keeps two
  // admission windows' worth queued or in flight. Returns creates per wall
  // second, or -1 when the creates stalled.
  double Bulk() {
    const size_t half = static_cast<size_t>(p.window) / 2;
    const size_t high = 2 * static_cast<size_t>(p.window);
    const int64_t t0 = Tracer::NowNs();
    for (long g = 0; g < p.groups; ++g) {
      Create(DrawMembers());
      if (svc.NumPendingCreates() >= high && !DrainTo(high - half)) {
        return -1;
      }
    }
    if (!DrainTo(0)) {
      return -1;
    }
    return static_cast<double>(p.groups) / (static_cast<double>(Tracer::NowNs() - t0) * 1e-9);
  }
};

}  // namespace

RunResult RunSimGroupsService(const RunOptions& opt) {
  const Params p(opt);
  RunResult r;

  // --- set-up: one cluster per round, and at least `setups` builds ---
  // Each round's cluster has its own topology, so the create latencies pool
  // over several topologies instead of reporting one seed's draw.
  std::vector<double> setup_s;
  std::vector<std::unique_ptr<fuse::SimCluster>> clusters;
  for (int i = 0; i < std::max(p.setups, p.rounds); ++i) {
    const int64_t t0 = Tracer::NowNs();
    auto cluster = std::make_unique<fuse::SimCluster>(
        MakeConfig(p, opt.seed + 0x10000ULL * static_cast<uint64_t>(i)));
    Probe build(*cluster);
    build.Build();
    setup_s.push_back(static_cast<double>(Tracer::NowNs() - t0) * 1e-9);
    const int ring_violations = build.CountRingViolations();
    if (ring_violations != 0) {
      r.violations.push_back("ring violations after Build: " + std::to_string(ring_violations));
    }
    clusters.push_back(std::move(cluster));
  }
  clusters.resize(static_cast<size_t>(p.rounds));

  fuse::GroupServiceOptions sopts;
  sopts.max_inflight_creates = p.window;
  fuse::Rng rng(opt.seed * 0x9E3779B97F4A7C15ULL + 23);
  // Create bookkeeping shared by every round's bulk phase and the
  // replacements.
  std::vector<double> create_ms;
  create_ms.reserve(static_cast<size_t>(p.groups) * static_cast<size_t>(p.rounds) +
                    static_cast<size_t>(p.signals));
  uint64_t create_failed = 0;

  // --- timed phase ---
  const int64_t wall0 = Tracer::NowNs();
  const CpuTimes cpu0 = SelfCpu();

  // Every round but the last: the bulk phase alone, on a cluster freed
  // afterwards. The reported rate is the median over all rounds, so a burst
  // of interference on the host moves one round, not the figure. Their
  // engine work counts in the per-layer figures with the last round's.
  std::vector<double> round_rate;
  EngineStats early_engine;
  double early_busy_s = 0;
  double early_sys_s = 0;
  for (int i = 0; i + 1 < p.rounds; ++i) {
    {
      fuse::SimCluster& rc = *clusters[static_cast<size_t>(i)];
      Probe round_probe(rc);
      fuse::GroupService round_svc(rc, sopts);
      Creator round{p, rc, round_probe, round_svc, rng, create_ms, create_failed};
      const EngineStats e0 = ReadEngine(rc, false);
      round_rate.push_back(round.Bulk());
      const EngineStats e1 = ReadEngine(rc, false);
      early_engine.executed += e1.executed - e0.executed;
      early_engine.scheduled += e1.scheduled - e0.scheduled;
      early_engine.cancelled += e1.cancelled - e0.cancelled;
      early_busy_s += round_probe.engine_busy_s();
      early_sys_s += round_probe.engine_sys_s();
    }
    clusters[static_cast<size_t>(i)].reset();
  }

  // The last round goes on to the idle window and the signals.
  fuse::SimCluster& c = *clusters.back();
  Probe probe(c);
  const double avg_neighbors = probe.AvgDistinctNeighbors();
  const MsgSnap after_build = ReadMessages(c);
  fuse::GroupService svc(c, sopts);
  Creator creator{p, c, probe, svc, rng, create_ms, create_failed};

  const double busy0 = probe.engine_busy_s();
  const double sys0 = probe.engine_sys_s();
  const EngineStats eng0 = ReadEngine(c, false);
  const double sim0_ms = creator.NowMs();
  const MsgSnap before_creates = ReadMessages(c);
  round_rate.push_back(creator.Bulk());
  if (*std::min_element(round_rate.begin(), round_rate.end()) < 0) {
    r.violations.push_back("group creates stalled");
  }
  const MsgSnap after_creates = ReadMessages(c);
  const uint64_t bulk_ok = svc.counters().creates_ok;

  // Idle liveness window with every group live.
  const MsgSnap idle_start = ReadMessages(c);
  probe.AdvanceFor(Duration::SecondsF(p.idle_s));
  const MsgSnap idle_end = ReadMessages(c);
  const FuseState fuse_state = ReadFuseState(probe);
  const double live_groups = static_cast<double>(svc.NumLive());
  double service_bytes = 0;
  {
    ScopedSpan s("service.ApproxBytes");
    service_bytes = static_cast<double>(svc.ApproxServiceBytes());
  }

  // Sample signaled and control groups by stride over the live table.
  std::vector<FuseId> sampled;
  {
    const size_t want = static_cast<size_t>(p.signals + p.controls);
    const size_t stride = std::max<size_t>(1, svc.NumLive() / std::max<size_t>(1, want));
    size_t i = 0;
    svc.ForEachLive([&](FuseId id, const fuse::GroupService::Record&) {
      if (i++ % stride == 0 && sampled.size() < want) {
        sampled.push_back(id);
      }
    });
    rng.Shuffle(sampled);
  }
  std::vector<WatchRecord> watches;
  std::vector<double> signal_ms(sampled.size(), 0);
  for (size_t gi = 0; gi < sampled.size(); ++gi) {
    const fuse::GroupService::Record* rec = svc.FindLive(sampled[gi]);
    std::vector<uint32_t> members = rec->members;
    if (std::find(members.begin(), members.end(), rec->root) == members.end()) {
      members.push_back(rec->root);
    }
    for (const uint32_t m : members) {
      WatchRecord w;
      w.group = static_cast<uint32_t>(gi);
      w.member = m;
      w.expect_fire = gi < static_cast<size_t>(p.signals);
      // The signaling root hears its own signal at once; only the others
      // measure propagation.
      w.sample_latency = m != rec->root;
      watches.push_back(w);
    }
  }
  const MsgSnap before_signals = ReadMessages(c);
  for (size_t w = 0; w < watches.size(); ++w) {
    const uint32_t span = Tracer::Get().BeginAsync("fuse.Watch");
    ScopedSpan s("service.Watch");
    svc.Watch(watches[w].member, sampled[watches[w].group], [&watches, w, span, &creator](FuseId) {
      Tracer::Get().EndAsync(span);
      watches[w].fires_ms.push_back(creator.NowMs());
    });
  }
  const int64_t signal_wall0 = Tracer::NowNs();
  for (size_t gi = 0; gi < static_cast<size_t>(p.signals) && gi < sampled.size(); ++gi) {
    const fuse::GroupService::Record* rec = svc.FindLive(sampled[gi]);
    const size_t root = rec != nullptr ? rec->root : 0;
    signal_ms[gi] = creator.NowMs();
    {
      ScopedSpan s("service.Signal");
      svc.Signal(root, sampled[gi]);
    }
    creator.Create(creator.DrawMembers());
    if ((gi + 1) % 256 == 0 && !creator.DrainTo(0)) {
      r.violations.push_back("replacement creates stalled");
      break;
    }
  }
  if (!creator.DrainTo(0)) {
    r.violations.push_back("replacement creates stalled");
  }
  for (WatchRecord& w : watches) {
    w.fault_ms = signal_ms[w.group];
  }
  uint64_t expected = 0;
  for (const WatchRecord& w : watches) {
    expected += w.expect_fire ? 1 : 0;
  }
  probe.Await(
      [&] {
        uint64_t got = 0;
        for (const WatchRecord& w : watches) {
          got += w.expect_fire && !w.fires_ms.empty() ? 1 : 0;
        }
        return got >= expected;
      },
      Duration::SecondsF(p.notify_bound_s));
  // A quiet tail catches late duplicates and notifications on controls.
  probe.AdvanceFor(Duration::Seconds(30));
  const double signal_wall = static_cast<double>(Tracer::NowNs() - signal_wall0) * 1e-9;

  const double run_rtt_us = probe.RunRttUs();
  const double timed_wall = static_cast<double>(Tracer::NowNs() - wall0) * 1e-9;
  const double timed_cpu = SelfCpu().total() - cpu0.total();
  const EngineStats eng1 = ReadEngine(c, false);
  const uint64_t events = early_engine.executed + (eng1.executed - eng0.executed);
  const double busy = early_busy_s + (probe.engine_busy_s() - busy0);
  const MsgSnap run_end = ReadMessages(c);
  const double sim_s = (creator.NowMs() - sim0_ms) / 1000.0;

  // --- contract: no fault but the signals, so nothing else may fire ---
  const ContractReport cr =
      CheckContract(watches, p.notify_bound_s * 1000, /*allow_false_positives=*/false);
  for (const std::string& v : cr.violations) {
    r.violations.push_back(v);
  }
  const uint64_t creates_attempted =
      static_cast<uint64_t>(p.groups) * static_cast<uint64_t>(p.rounds - 1) +
      svc.counters().creates_requested;
  if (create_failed > 0) {
    r.violations.push_back(std::to_string(create_failed) +
                           " group creates failed with no fault injected");
  }
  r.attempted = creates_attempted + cr.expected;
  r.failed = create_failed + cr.missed;

  // --- end-to-end ---
  const LatencySummary cl = Summarize(create_ms);
  const LatencySummary nl = Summarize(cr.latency_ms);
  r.E2E("setup_s", "s", Median(setup_s));
  r.E2E("throughput", "1/s", Median(round_rate));
  r.E2E("create_p50_ms", "ms", cl.p50);
  r.E2E("create_tail_ms", "ms", cl.tail);
  r.E2E("notify_p50_ms", "ms", nl.p50);
  r.E2E("notify_tail_ms", "ms", nl.tail);
  r.E2E("msgs_per_node_s", "1/s",
        static_cast<double>((run_end - before_creates).total) / p.nodes / sim_s);
  r.E2E("peak_rss_mb", "MB", SelfPeakRssMb());
  r.E2E("cpu_util", "s/s", timed_cpu / timed_wall);

  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "create latency (sim): n=%zu p50=%.3f ms p%g=%.3f ms; "
                "signal->notify latency (sim): n=%zu p50=%.3f ms p%g=%.3f ms",
                cl.count, cl.p50, cl.tail_pct, cl.tail, nl.count, nl.p50, nl.tail_pct, nl.tail);
  r.Note(buf);
  std::snprintf(buf, sizeof(buf),
                "contract: expected=%llu delivered=%llu missed=%llu duplicate=%llu "
                "spurious=%llu partial=%llu create_failed=%llu",
                static_cast<unsigned long long>(cr.expected),
                static_cast<unsigned long long>(cr.delivered),
                static_cast<unsigned long long>(cr.missed),
                static_cast<unsigned long long>(cr.duplicates),
                static_cast<unsigned long long>(cr.spurious),
                static_cast<unsigned long long>(cr.partial),
                static_cast<unsigned long long>(create_failed));
  r.Note(buf);
  std::snprintf(buf, sizeof(buf),
                "simdigest: create_p50=%.17g create_tail=%.17g notify_p50=%.17g "
                "notify_tail=%.17g msgs=%llu events=%llu",
                cl.p50, cl.tail, nl.p50, nl.tail, static_cast<unsigned long long>(run_end.total),
                static_cast<unsigned long long>(events));
  r.Note(buf);
  std::snprintf(buf, sizeof(buf),
                "%d rounds of %ld creates: %.0f-%.0f creates/wall s, median %.0f; "
                "%.0f live groups, %.1f B/group; signal phase %.3f wall s",
                p.rounds, p.groups, *std::min_element(round_rate.begin(), round_rate.end()),
                *std::max_element(round_rate.begin(), round_rate.end()), Median(round_rate),
                live_groups, (fuse_state.group_bytes + service_bytes) / live_groups,
                signal_wall);
  r.Note(buf);

  // --- per layer ---
  const MsgSnap idle = idle_end - idle_start;
  r.Layer("sim.events", "count", static_cast<double>(events));
  r.Layer("sim.events_per_wall_s", "1/s", busy > 0 ? static_cast<double>(events) / busy : 0);
  r.Layer("sim.busy_s", "s", busy);
  r.Layer("sim.sys_cpu_s", "s", early_sys_s + (probe.engine_sys_s() - sys0));
  r.Layer("sim.timers_scheduled", "count",
          static_cast<double>(early_engine.scheduled + (eng1.scheduled - eng0.scheduled)));
  r.Layer("sim.timers_cancelled", "count",
          static_cast<double>(early_engine.cancelled + (eng1.cancelled - eng0.cancelled)));
  r.Layer("sim.pending_timers", "count", static_cast<double>(eng1.pending));
  r.Layer("overlay.ping_msgs_per_node_s", "1/s",
          static_cast<double>(idle[MsgCategory::kOverlayPing] +
                              idle[MsgCategory::kOverlayPingReply]) /
              p.nodes / p.idle_s);
  r.Layer("overlay.avg_neighbors", "count", avg_neighbors);
  r.Layer("overlay.join_msgs", "count", static_cast<double>(after_build[MsgCategory::kOverlayJoin]));
  r.Layer("fuse.create_msgs_per_group", "count",
          bulk_ok > 0 ? static_cast<double>(CreateMsgs(after_creates - before_creates)) /
                            static_cast<double>(bulk_ok)
                      : 0);
  const MsgSnap signal_phase = run_end - before_signals;
  r.Layer("fuse.repair_msgs", "count", static_cast<double>(RepairMsgs(run_end - after_creates)));
  r.Layer("fuse.notify_msgs_per_group", "count",
          p.signals > 0 ? static_cast<double>(NotifyMsgs(signal_phase)) / p.signals : 0);
  r.Layer("fuse.group_bytes", "B", live_groups > 0 ? fuse_state.group_bytes / live_groups : 0);
  r.Layer("fuse.armed_timers", "count", fuse_state.armed_timers);
  r.Layer("fuse.false_positive_groups", "count", static_cast<double>(cr.false_positive_groups));
  r.Layer("service.admitted_per_pump", "count",
          creator.pumps > 0
              ? static_cast<double>(creator.admitted) / static_cast<double>(creator.pumps)
              : 0);
  r.Layer("service.bytes_per_group", "B", live_groups > 0 ? service_bytes / live_groups : 0);
  r.Layer("runtime.run_rtt_us", "us", run_rtt_us);
  r.Layer("runtime.controller_cpu_s", "s", timed_cpu);
  return r;
}

}  // namespace perfbench
