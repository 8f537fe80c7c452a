#include "runtime/process_cluster.h"

#if defined(__linux__)

#include <fcntl.h>
#include <signal.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <map>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/serialize.h"
#include "runtime/control_protocol.h"
#include "runtime/live_cluster.h"
#include "runtime/loop_deployment.h"
#include "transport/datagram_transport.h"

namespace fuse {

// The framed command/event vocabulary both loops below speak lives in
// runtime/control_protocol.h (one header, no hand-mirrored opcode tables).
using namespace ctrl;

namespace {

// Spawner channel (SEQPACKET socketpair): requests are a bare u32 worker
// index; responses are {u32 widx, u32 pid, u32 incarnation} with the worker's
// control fd attached via SCM_RIGHTS.
struct SpawnResponse {
  uint32_t widx;
  uint32_t pid;
  uint32_t incarnation;
};

void SendFrameTo(FramedSocket& sock, const Writer& w) {
  sock.SendFrame(w.bytes().data(), w.bytes().size());
}

// --- worker process --------------------------------------------------------

// Everything one worker process owns. Lives on the worker's main-thread
// stack; all mutation happens on the worker's loop thread.
// Builds the per-run messaging layer. The worker seed is already
// (seed, worker, incarnation)-derived, so it doubles as the datagram
// fabric's session/loss-draw seed: a restarted incarnation gets a fresh
// dedupe stream for free.
std::unique_ptr<Fabric> MakeFabric(const ProcessClusterConfig& cfg, LiveRuntime* rt,
                                   uint64_t seed) {
  if (cfg.transport == TransportKind::kUdp) {
    DatagramFabric::Options o;
    o.seed = seed;
    return std::make_unique<DatagramFabric>(rt, o);
  }
  return std::make_unique<SocketFabric>(rt, cfg.socket);
}

struct Worker {
  Worker(const ProcessClusterConfig& config, uint32_t widx_in, uint32_t incarnation_in,
         LiveRuntime::Config rc)
      : cfg(config), widx(widx_in), incarnation(incarnation_in), rt(rc),
        fabric(MakeFabric(config, &rt, rc.seed)), ctrl(&rt) {}

  const ProcessClusterConfig& cfg;
  uint32_t widx;
  uint32_t incarnation;
  LiveRuntime rt;
  std::unique_ptr<Fabric> fabric;
  FramedSocket ctrl;
  std::unordered_map<uint64_t, std::unique_ptr<Node>> nodes;
  // In-place-killed co-tenants, parked (quiesced, unregistered, host-down)
  // so in-flight loop callbacks referencing them stay safe — the worker-side
  // twin of ClusterHarness::graveyard_.
  std::vector<std::unique_ptr<Node>> graveyard;

  Node* NodeFor(uint64_t host) {
    const auto it = nodes.find(host);
    FUSE_CHECK(it != nodes.end()) << "worker " << widx << ": no node for host " << host;
    return it->second.get();
  }

  void HandleCommand(const uint8_t* data, size_t len);
};

void Worker::HandleCommand(const uint8_t* data, size_t len) {
  Reader r(data, len);
  const uint8_t op = r.GetU8();
  switch (op) {
    case kCmdAddrs: {
      AddrsFrame f;
      FUSE_CHECK(DecodeAddrs(r, &f)) << "worker " << widx << ": malformed address map";
      // An address is only meaningful for the fabric it was bound by; a
      // transport mismatch means controller/worker config skew.
      FUSE_CHECK(f.transport == cfg.transport)
          << "worker " << widx << ": transport mismatch (controller "
          << TransportKindName(f.transport) << ", worker " << TransportKindName(cfg.transport)
          << ")";
      fabric->ApplyAddressMap(f.addrs);
      break;
    }
    case kCmdFaults: {
      // A truncated rule set must fail loudly here, not as a mystifying
      // agreement violation later (DecodeFrom clears before decoding).
      FUSE_CHECK(fabric->faults().DecodeFrom(r))
          << "worker " << widx << ": malformed fault rules";
      break;
    }
    case kCmdCreateNode: {
      const uint64_t host = r.GetU64();
      std::string name = r.GetString();
      const uint64_t numeric = r.GetU64();
      FUSE_CHECK(!nodes.contains(host)) << "worker " << widx << ": duplicate node " << host;
      nodes[host] = std::make_unique<Node>(fabric->TransportFor(HostId(host)), std::move(name),
                                           NumericId(numeric), cfg.overlay, cfg.fuse);
      break;
    }
    case kCmdJoinFirst: {
      NodeFor(r.GetU64())->overlay()->JoinAsFirst();
      break;
    }
    case kCmdJoin: {
      const uint64_t host = r.GetU64();
      const uint64_t boot = r.GetU64();
      const uint64_t seq = r.GetU64();
      const bool start_maint = r.GetU8() != 0;
      Node* n = NodeFor(host);
      auto reply = [this, host, seq, start_maint](const Status& s) {
        if (s.ok() && start_maint) {
          NodeFor(host)->overlay()->StartMaintenance();
        }
        Writer w;
        w.PutU8(kEvJoinResult);
        w.PutU64(seq);
        w.PutU8(s.ok() ? 1 : 0);
        w.PutString(s.ToString());
        SendFrameTo(ctrl, w);
      };
      if (boot == host) {
        // No live bootstrap existed: seed a fresh ring (restart of the only
        // survivor), mirroring the in-process revive path.
        n->overlay()->JoinAsFirst();
        reply(Status::Ok());
      } else {
        n->overlay()->Join(HostId(boot), std::move(reply));
      }
      break;
    }
    case kCmdKillNode: {
      // In-place fail-stop of one co-hosted node: the process must survive
      // for its co-tenants, so the node is quiesced the way the in-process
      // backends crash one — shut down, handlers unregistered, fault rules
      // marking the host down (the controller broadcasts the same rule to
      // every peer worker) — and parked rather than destroyed.
      const uint64_t host = r.GetU64();
      const auto it = nodes.find(host);
      FUSE_CHECK(it != nodes.end()) << "worker " << widx << ": kill of unknown node " << host;
      it->second->ShutdownAll();
      fabric->UnregisterAllHandlers(HostId(host));
      fabric->faults().SetHostDown(HostId(host), true);
      graveyard.push_back(std::move(it->second));
      nodes.erase(it);
      break;
    }
    case kCmdStartMaint: {
      NodeFor(r.GetU64())->overlay()->StartMaintenance();
      break;
    }
    case kCmdLeafExchange: {
      NodeFor(r.GetU64())->overlay()->RunLeafExchangeOnce();
      break;
    }
    case kCmdCreateGroup: {
      const uint64_t root = r.GetU64();
      const uint64_t seq = r.GetU64();
      const uint16_t n = r.GetU16();
      std::vector<NodeRef> refs;
      refs.reserve(n);
      for (uint16_t i = 0; i < n && r.ok(); ++i) {
        NodeRef ref;
        ref.name = r.GetString();
        ref.host = HostId(r.GetU64());
        refs.push_back(std::move(ref));
      }
      NodeFor(root)->fuse()->CreateGroup(
          std::move(refs), [this, seq](const Status& s, FuseId id) {
            Writer w;
            w.PutU8(kEvCreateGroupResult);
            w.PutU64(seq);
            w.PutU8(s.ok() ? 1 : 0);
            w.PutString(s.ToString());
            w.PutU64(id.hi);
            w.PutU64(id.lo);
            SendFrameTo(ctrl, w);
          });
      break;
    }
    case kCmdWatch: {
      const uint64_t host = r.GetU64();
      FuseId id;
      id.hi = r.GetU64();
      id.lo = r.GetU64();
      NodeFor(host)->fuse()->RegisterFailureHandler(id, [this, host, id](FuseId) {
        Writer w;
        w.PutU8(kEvNotify);
        w.PutU64(host);
        w.PutU64(id.hi);
        w.PutU64(id.lo);
        SendFrameTo(ctrl, w);
      });
      break;
    }
    case kCmdSignal: {
      const uint64_t host = r.GetU64();
      FuseId id;
      id.hi = r.GetU64();
      id.lo = r.GetU64();
      // Like the in-process harness: a node killed in place has nothing to
      // signal with.
      if (const auto it = nodes.find(host); it != nodes.end()) {
        it->second->fuse()->SignalFailure(id);
      }
      break;
    }
    case kCmdStats: {
      // Snapshot of this worker's transport event counters (syscalls,
      // datagrams, retransmits, dedupes); the controller sums across workers.
      const uint64_t gen = r.GetU64();
      Writer w;
      w.PutU8(kEvStats);
      w.PutU64(gen);
      w.PutU32(static_cast<uint32_t>(Counter::kCount));
      for (uint32_t i = 0; i < static_cast<uint32_t>(Counter::kCount); ++i) {
        const auto c = static_cast<Counter>(i);
        w.PutString(CounterName(c));
        w.PutU64(rt.metrics().GetCounter(c));
      }
      SendFrameTo(ctrl, w);
      break;
    }
    default:
      FUSE_CHECK(false) << "worker " << widx << ": unknown command " << int{op};
  }
}

[[noreturn]] void WorkerMain(const ProcessClusterConfig& cfg, uint32_t widx,
                             uint32_t incarnation, int ctrl_fd) {
  ::signal(SIGPIPE, SIG_IGN);
  ::fcntl(ctrl_fd, F_SETFL, O_NONBLOCK);
  // Every incarnation gets its own stream: a restarted worker must not replay
  // the FUSE ids / protocol jitter of its previous life.
  LiveRuntime::Config rc;
  rc.seed = cfg.seed;
  rc.seed ^= (uint64_t{widx} + 1) * 0x9e3779b97f4a7c15ULL;
  rc.seed ^= (uint64_t{incarnation} + 1) * 0xbf58476d1ce4e5b9ULL;
  Worker w(cfg, widx, incarnation, rc);
  const bool ok = w.rt.RunOnLoop([&] {
    const uint16_t port = w.fabric->Listen();
    w.ctrl.set_on_frame([&w](const uint8_t* d, size_t l) { w.HandleCommand(d, l); });
    // Controller gone (teardown or controller crash): this process has no
    // purpose and no state worth saving — exit like the crash-only software
    // it models.
    w.ctrl.set_on_close([] { ::_exit(0); });
    w.ctrl.Adopt(ctrl_fd, /*connecting=*/false);
    Writer hello;
    hello.PutU8(kEvHello);
    hello.PutU32(w.widx);
    hello.PutU32(w.incarnation);
    hello.PutU16(port);
    hello.PutU8(static_cast<uint8_t>(w.cfg.transport));
    SendFrameTo(w.ctrl, hello);
  });
  FUSE_CHECK(ok) << "worker loop died during setup";
  // The loop thread owns the process from here; it exits via _exit.
  for (;;) {
    ::pause();
  }
}

// --- spawner process -------------------------------------------------------
// Forked from the controller while it is still single-threaded; forks one
// worker per request and passes the worker's control fd back over SCM_RIGHTS.
// This is what keeps mid-run restarts (churn!) from ever forking a process
// that owns an event-loop thread.

void SendSpawnResponse(int fd, SpawnResponse resp, int pass_fd) {
  struct msghdr mh{};
  struct iovec iov{&resp, sizeof(resp)};
  mh.msg_iov = &iov;
  mh.msg_iovlen = 1;
  alignas(struct cmsghdr) char cbuf[CMSG_SPACE(sizeof(int))];
  mh.msg_control = cbuf;
  mh.msg_controllen = sizeof(cbuf);
  struct cmsghdr* cm = CMSG_FIRSTHDR(&mh);
  cm->cmsg_level = SOL_SOCKET;
  cm->cmsg_type = SCM_RIGHTS;
  cm->cmsg_len = CMSG_LEN(sizeof(int));
  std::memcpy(CMSG_DATA(cm), &pass_fd, sizeof(int));
  ::sendmsg(fd, &mh, MSG_NOSIGNAL);
}

[[noreturn]] void SpawnerMain(const ProcessClusterConfig cfg, int fd) {
  ::signal(SIGPIPE, SIG_IGN);
  // Bounded recv timeout so exited workers are reaped even between requests.
  struct timeval tv{};
  tv.tv_usec = 200 * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  std::vector<pid_t> kids;
  std::vector<uint32_t> incarnations(static_cast<size_t>(cfg.MakePlacement().NumMachines()), 0);
  for (;;) {
    // Reap exited workers AND forget their pids: a reaped pid number may be
    // reused by the kernel, and the teardown SIGKILL sweep below must never
    // target a recycled pid.
    for (pid_t reaped; (reaped = ::waitpid(-1, nullptr, WNOHANG)) > 0;) {
      std::erase(kids, reaped);
    }
    uint32_t widx = 0;
    const ssize_t r = ::recv(fd, &widx, sizeof(widx), 0);
    if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      continue;
    }
    if (r != sizeof(widx)) {
      break;  // controller closed its end (teardown) or hard error
    }
    if (widx >= incarnations.size()) {
      continue;
    }
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0) {
      break;
    }
    const uint32_t inc = incarnations[widx]++;
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::close(sv[0]);
      ::close(fd);
      WorkerMain(cfg, widx, inc, sv[1]);  // never returns
    }
    ::close(sv[1]);
    if (pid > 0) {
      kids.push_back(pid);
      SendSpawnResponse(fd, SpawnResponse{widx, static_cast<uint32_t>(pid), inc}, sv[0]);
    }
    ::close(sv[0]);
  }
  for (const pid_t p : kids) {
    ::kill(p, SIGKILL);
  }
  for (const pid_t p : kids) {
    ::waitpid(p, nullptr, 0);
  }
  ::_exit(0);
}

LiveRuntime::Config ControllerRuntimeConfig(const ProcessClusterConfig& cfg) {
  LiveRuntime::Config rc;
  rc.seed = cfg.seed;  // the single randomness source the harness draws from
  return rc;
}

}  // namespace

// --- controller ------------------------------------------------------------

class ProcessDeployment : public LoopDeployment {
 public:
  // The spawner is forked in Bootstrap() BEFORE the base class starts the
  // loop thread (base-from-member via the delegating constructor), so the
  // fork happens while this process is still single-threaded.
  struct Bootstrapped {
    ProcessClusterConfig cfg;
    int spawner_fd;
    pid_t spawner_pid;
  };

  explicit ProcessDeployment(const ProcessClusterConfig& cfg)
      : ProcessDeployment(Bootstrap(cfg)) {}

  ~ProcessDeployment() override {
    runtime_->Stop();
    // Closing the control channels is the worker shutdown signal; closing
    // the spawner channel makes the spawner SIGKILL any survivor and exit.
    for (WorkerState& w : workers_) {
      w.ctrl.reset();
    }
    if (spawner_fd_ >= 0) {
      runtime_->UnwatchFd(spawner_fd_);
      ::close(spawner_fd_);
    }
    if (spawner_pid_ > 0) {
      ::waitpid(spawner_pid_, nullptr, 0);
    }
  }

  // --- Deployment ---
  Transport* CreateHost(size_t index) override {
    const size_t widx = static_cast<size_t>(placement_.MachineOf(index));
    FUSE_CHECK(widx < workers_.size()) << "host index out of range";
    const bool ready = AwaitCondition(
        [this, widx] { return workers_[widx].st == WorkerState::St::kReady; },
        Duration::Seconds(60));
    FUSE_CHECK(ready) << "worker " << widx << " failed to spawn";
    return nullptr;  // hosts live in worker processes; no in-process transport
  }

  void CrashHost(HostId h) override {
    const uint32_t widx = widx_of(h);
    if (!placement_.MultiTenant()) {
      // One node per worker: the node dies with its machine — a genuine
      // SIGKILL; peers observe broken connections and refused dials.
      KillMachineWorker(widx);
      return;
    }
    // Multi-tenant: co-tenants must survive, so a single-node crash is an
    // in-place kill. The worker quiesces the node (FIFO: this frame lands
    // before the rule broadcast below); the controller mirrors host-down and
    // replicates it so every peer fabric refuses the host's traffic — no
    // false acks from a listener that is still very much alive.
    WorkerState& w = workers_[widx];
    mirror_.SetHostDown(h, true);
    if (w.st == WorkerState::St::kReady) {
      Writer cmd;
      cmd.PutU8(kCmdKillNode);
      cmd.PutU64(h.value);
      SendTo(widx, cmd);
    } else {
      // Worker down or mid-respawn: the node has no process state to kill,
      // but a revive queued for it must not come back from the dead.
      std::erase_if(w.revives,
                    [&h](const std::unique_ptr<Revive>& rev) { return rev->host == h; });
    }
    BroadcastFaults();
    FailPendingForHost(h);
  }

  void RestartHost(HostId h) override {
    // Clear the host's down rule everywhere FIRST: an in-place kill (or an
    // in-place kill followed by a whole-machine crash) left it in the
    // mirror, and a stale rule would silently refuse the fresh incarnation.
    // Channel FIFO orders this broadcast before the revive's CreateNode.
    mirror_.SetHostDown(h, false);
    BroadcastFaults();
    const uint32_t widx = widx_of(h);
    WorkerState& w = workers_[widx];
    switch (w.st) {
      case WorkerState::St::kSpawning:
        // Crash raced a previous spawn (kill_on_ready: the in-flight fork is
        // already a fresh incarnation — adopt it), or a machine restart is
        // reviving co-tenants one by one while the respawn is in flight.
        // Either way the pending Hello serves this host's queued revive.
        w.kill_on_ready = false;
        return;
      case WorkerState::St::kReady:
        // Multi-tenant in-place revive: the process is alive; QueueRevive
        // re-creates the node inside it immediately.
        FUSE_CHECK(placement_.MultiTenant()) << "restart of live worker " << widx;
        return;
      case WorkerState::St::kDead:
        w.st = WorkerState::St::kSpawning;
        RequestSpawn(widx);
        return;
    }
  }

  void CrashMachine(const std::vector<HostId>& hosts) override {
    // The machine is the unit of failure: one SIGKILL takes down every
    // co-hosted node at once, no matter how many tenants the worker has.
    FUSE_CHECK(!hosts.empty()) << "machine crash with no hosts";
    const uint32_t widx = widx_of(hosts[0]);
    for (const HostId h : hosts) {
      FUSE_CHECK(widx_of(h) == widx) << "machine crash spans workers";
    }
    KillMachineWorker(widx);
  }

  void ApplyFaults(const std::function<void(FaultInjector&)>& fn) override {
    // Mutate the controller's mirror, then replicate the whole rule set to
    // every live worker (each evaluates it sender-side and on delivery).
    // Replication is asynchronous: frames are queued here and applied when
    // each worker's loop dispatches them (see Deployment::ApplyFaults).
    runtime_->RunOnLoop([&] {
      fn(mirror_);
      BroadcastFaults();
    });
  }

  // --- commands for ProcessCluster (loop thread only) ---
  void SendCreateNode(HostId h, const std::string& name, uint64_t numeric) {
    Writer w;
    w.PutU8(kCmdCreateNode);
    w.PutU64(h.value);
    w.PutString(name);
    w.PutU64(numeric);
    SendTo(widx_of(h), w);
  }

  void SendJoinFirst(HostId h) {
    Writer w;
    w.PutU8(kCmdJoinFirst);
    w.PutU64(h.value);
    SendTo(widx_of(h), w);
  }

  void SendJoin(HostId h, HostId boot, bool start_maint, std::function<void(const Status&)> cb) {
    if (!WorkerUsable(widx_of(h))) {
      FailLater(std::move(cb));
      return;
    }
    const uint64_t seq = next_seq_++;
    pending_joins_.emplace(seq, PendingJoin{widx_of(h), h.value, std::move(cb)});
    Writer w;
    w.PutU8(kCmdJoin);
    w.PutU64(h.value);
    w.PutU64(boot.value);
    w.PutU64(seq);
    w.PutU8(start_maint ? 1 : 0);
    SendTo(widx_of(h), w);
  }

  void SendStartMaintenance(HostId h) {
    Writer w;
    w.PutU8(kCmdStartMaint);
    w.PutU64(h.value);
    SendTo(widx_of(h), w);
  }

  void SendLeafExchange(HostId h) {
    Writer w;
    w.PutU8(kCmdLeafExchange);
    w.PutU64(h.value);
    SendTo(widx_of(h), w);
  }

  void SendCreateGroup(HostId root, const std::vector<NodeRef>& members,
                       std::function<void(const Status&, FuseId)> cb) {
    if (!WorkerUsable(widx_of(root))) {
      runtime_->Schedule(Duration::Zero(), [cb = std::move(cb)] {
        cb(Status::Broken("process: root worker not running"), FuseId());
      });
      return;
    }
    const uint64_t seq = next_seq_++;
    pending_creates_.emplace(seq, PendingCreate{widx_of(root), root.value, std::move(cb)});
    Writer w;
    w.PutU8(kCmdCreateGroup);
    w.PutU64(root.value);
    w.PutU64(seq);
    w.PutU16(static_cast<uint16_t>(members.size()));
    for (const NodeRef& m : members) {
      w.PutString(m.name);
      w.PutU64(m.host.value);
    }
    SendTo(widx_of(root), w);
  }

  void SendWatch(HostId h, FuseId id, std::function<void()> on_fire) {
    if (!WorkerUsable(widx_of(h))) {
      return;  // a watch on a dead member can never fire anyway
    }
    watches_[std::make_tuple(id.hi, id.lo, h.value)].push_back(std::move(on_fire));
    Writer w;
    w.PutU8(kCmdWatch);
    w.PutU64(h.value);
    w.PutU64(id.hi);
    w.PutU64(id.lo);
    SendTo(widx_of(h), w);
  }

  void SendSignal(HostId h, FuseId id) {
    if (!WorkerUsable(widx_of(h))) {
      return;  // a dead node holds no group state to signal
    }
    Writer w;
    w.PutU8(kCmdSignal);
    w.PutU64(h.value);
    w.PutU64(id.hi);
    w.PutU64(id.lo);
    SendTo(widx_of(h), w);
  }

  // Re-creates the node and rejoins it: immediately on a live multi-tenant
  // worker, or deferred until the respawned worker reports in.
  void QueueRevive(HostId h, std::string name, uint64_t numeric, HostId boot,
                   std::function<void(const Status&)> join_cb) {
    WorkerState& w = worker_of(h);
    if (w.st == WorkerState::St::kReady) {
      // In-place revive: RestartHost already cleared the host-down rule (and
      // FIFO put that broadcast ahead of these frames).
      SendCreateNode(h, name, numeric);
      SendJoin(h, boot, /*start_maint=*/true, std::move(join_cb));
      return;
    }
    FUSE_CHECK(w.st == WorkerState::St::kSpawning) << "revive without restart";
    w.revives.push_back(std::make_unique<Revive>(
        Revive{h, std::move(name), numeric, boot, std::move(join_cb)}));
  }

  bool WorkerUsable(size_t widx) const {
    return workers_[widx].st == WorkerState::St::kReady;
  }

  // Whether commands for this host currently have a process to land in.
  bool HostUsable(HostId h) const { return WorkerUsable(widx_of(h)); }

  size_t NumWorkers() const { return workers_.size(); }

  // Snapshots the transport event counters (send/recv syscalls, datagrams,
  // retransmits, dedupe suppressions) of every live worker — the
  // process-backend view of the metrics each worker's fabric maintains,
  // broken down per machine. Generation-tagged so a laggard reply from an
  // earlier collection can never pollute this one. Best-effort: a worker
  // that dies mid-collection leaves its slot empty when the bound expires.
  std::vector<std::map<std::string, uint64_t>> CollectTransportCounters(Duration bound) {
    runtime_->RunOnLoop([&] {
      ++stats_gen_;
      stats_by_worker_.assign(workers_.size(), {});
      stats_expected_ = 0;
      stats_received_ = 0;
      Writer w;
      w.PutU8(kCmdStats);
      w.PutU64(stats_gen_);
      for (uint32_t i = 0; i < workers_.size(); ++i) {
        if (workers_[i].st == WorkerState::St::kReady) {
          SendTo(i, w);
          ++stats_expected_;
        }
      }
    });
    AwaitCondition([this] { return stats_received_ >= stats_expected_; }, bound);
    std::vector<std::map<std::string, uint64_t>> out;
    runtime_->RunOnLoop([&] { out = stats_by_worker_; });
    return out;
  }

 private:
  struct Revive {
    HostId host;
    std::string name;
    uint64_t numeric;
    HostId boot;
    std::function<void(const Status&)> join_cb;
  };

  struct WorkerState {
    enum class St { kSpawning, kReady, kDead };
    St st = St::kSpawning;
    bool kill_on_ready = false;
    pid_t pid = -1;
    uint32_t incarnation = 0;
    uint16_t port = 0;  // latest advertised port (kept across death)
    std::unique_ptr<FramedSocket> ctrl;
    // Revives awaiting the respawned worker's Hello — after a machine crash,
    // one per co-hosted node being restarted.
    std::vector<std::unique_ptr<Revive>> revives;
  };

  struct PendingJoin {
    uint32_t widx;
    uint64_t host;
    std::function<void(const Status&)> cb;
  };
  struct PendingCreate {
    uint32_t widx;
    uint64_t host;
    std::function<void(const Status&, FuseId)> cb;
  };

  static Bootstrapped Bootstrap(ProcessClusterConfig cfg) {
    // Worker-side protocol config: maintenance starts explicitly, exactly as
    // the harness forces for its own copy.
    cfg.overlay.start_maintenance_on_join = false;
    int sp[2];
    FUSE_CHECK(::socketpair(AF_UNIX, SOCK_SEQPACKET, 0, sp) == 0)
        << "socketpair failed: " << std::strerror(errno);
    const pid_t pid = ::fork();
    FUSE_CHECK(pid >= 0) << "fork failed: " << std::strerror(errno);
    if (pid == 0) {
      ::close(sp[0]);
      SpawnerMain(cfg, sp[1]);  // never returns
    }
    ::close(sp[1]);
    ::fcntl(sp[0], F_SETFL, O_NONBLOCK);
    return Bootstrapped{std::move(cfg), sp[0], pid};
  }

  explicit ProcessDeployment(Bootstrapped b)
      : LoopDeployment(ControllerRuntimeConfig(b.cfg)),
        cfg_(std::move(b.cfg)),
        placement_(cfg_.MakePlacement()),
        spawner_fd_(b.spawner_fd),
        spawner_pid_(b.spawner_pid) {
    // Addresses of peers outside this deployment (another controller's
    // workers on another machine) underlay the workers' own advertisements.
    addr_map_.Merge(cfg_.static_addrs);
    workers_.resize(static_cast<size_t>(placement_.NumMachines()));
    for (uint32_t i = 0; i < workers_.size(); ++i) {
      RequestSpawn(i);
    }
    // Registered after the state table exists: from here on, every mutation
    // happens on the loop thread.
    runtime_->WatchFd(spawner_fd_, EPOLLIN, [this](uint32_t) { OnSpawnerReadable(); });
  }

  uint32_t widx_of(HostId h) const {
    return static_cast<uint32_t>(placement_.MachineOf(static_cast<size_t>(h.value)));
  }
  WorkerState& worker_of(HostId h) { return workers_[widx_of(h)]; }

  void RequestSpawn(uint32_t widx) {
    const ssize_t n = ::send(spawner_fd_, &widx, sizeof(widx), MSG_NOSIGNAL);
    FUSE_CHECK(n == sizeof(widx)) << "spawn request failed: " << std::strerror(errno);
  }

  void OnSpawnerReadable() {
    for (;;) {
      SpawnResponse resp{};
      struct msghdr mh{};
      struct iovec iov{&resp, sizeof(resp)};
      mh.msg_iov = &iov;
      mh.msg_iovlen = 1;
      alignas(struct cmsghdr) char cbuf[CMSG_SPACE(sizeof(int))];
      mh.msg_control = cbuf;
      mh.msg_controllen = sizeof(cbuf);
      const ssize_t n = ::recvmsg(spawner_fd_, &mh, 0);
      if (n <= 0) {
        return;  // EAGAIN, or the spawner died (teardown surfaces it)
      }
      int fd = -1;
      for (struct cmsghdr* cm = CMSG_FIRSTHDR(&mh); cm != nullptr; cm = CMSG_NXTHDR(&mh, cm)) {
        if (cm->cmsg_level == SOL_SOCKET && cm->cmsg_type == SCM_RIGHTS) {
          std::memcpy(&fd, CMSG_DATA(cm), sizeof(int));
        }
      }
      if (n != sizeof(resp) || fd < 0 || resp.widx >= workers_.size()) {
        if (fd >= 0) {
          ::close(fd);
        }
        continue;
      }
      ::fcntl(fd, F_SETFL, O_NONBLOCK);
      WorkerState& w = workers_[resp.widx];
      w.pid = static_cast<pid_t>(resp.pid);
      w.incarnation = resp.incarnation;
      w.ctrl = std::make_unique<FramedSocket>(runtime_.get());
      const uint32_t widx = resp.widx;
      w.ctrl->set_on_frame(
          [this, widx](const uint8_t* d, size_t l) { OnWorkerFrame(widx, d, l); });
      w.ctrl->set_on_close([this, widx] { OnWorkerClosed(widx); });
      w.ctrl->Adopt(fd, /*connecting=*/false);
    }
  }

  void OnWorkerFrame(uint32_t widx, const uint8_t* data, size_t len) {
    WorkerState& w = workers_[widx];
    Reader r(data, len);
    switch (r.GetU8()) {
      case kEvHello: {
        r.GetU32();  // widx (redundant: the channel identifies the worker)
        r.GetU32();  // incarnation
        w.port = r.GetU16();
        const auto tk = static_cast<TransportKind>(r.GetU8());
        FUSE_CHECK(r.ok() && tk == cfg_.transport)
            << "worker " << widx << " came up on transport " << TransportKindName(tk)
            << ", controller expects " << TransportKindName(cfg_.transport);
        if (w.kill_on_ready) {
          // A crash was requested while this incarnation was still forking.
          // This frame came in on w.ctrl itself, and FramedSocket forbids
          // destroying the socket from its own on_frame — kill the process
          // now but release the channel from a fresh loop event.
          w.kill_on_ready = false;
          w.revives.clear();
          w.st = WorkerState::St::kDead;
          if (w.pid > 0) {
            ::kill(w.pid, SIGKILL);
          }
          runtime_->Schedule(Duration::Zero(), [this, widx] {
            WorkerState& ws = workers_[widx];
            // A restart may already have replaced the channel (its spawn
            // response resets st to kSpawning first); only the dead-state
            // socket is ours to drop.
            if (ws.st == WorkerState::St::kDead) {
              ws.ctrl.reset();
            }
          });
          return;
        }
        w.st = WorkerState::St::kReady;
        // Every node this worker hosts now answers at the fresh port.
        for (const size_t node : placement_.NodesOn(static_cast<int>(widx))) {
          addr_map_.Set(HostId(static_cast<uint64_t>(node)),
                        PeerEndpoint::Loopback(w.port));
        }
        SendFaultsTo(widx);
        BroadcastAddrs();
        if (!w.revives.empty()) {
          std::vector<std::unique_ptr<Revive>> revives = std::move(w.revives);
          w.revives.clear();
          for (std::unique_ptr<Revive>& rev : revives) {
            SendCreateNode(rev->host, rev->name, rev->numeric);
            SendJoin(rev->host, rev->boot, /*start_maint=*/true, std::move(rev->join_cb));
          }
        }
        return;
      }
      case kEvJoinResult: {
        const uint64_t seq = r.GetU64();
        const bool ok = r.GetU8() != 0;
        const std::string msg = r.GetString();
        const auto it = pending_joins_.find(seq);
        if (it == pending_joins_.end()) {
          return;
        }
        auto cb = std::move(it->second.cb);
        pending_joins_.erase(it);
        if (cb) {
          cb(ok ? Status::Ok() : Status::Failed(msg));
        }
        return;
      }
      case kEvCreateGroupResult: {
        const uint64_t seq = r.GetU64();
        const bool ok = r.GetU8() != 0;
        const std::string msg = r.GetString();
        FuseId id;
        id.hi = r.GetU64();
        id.lo = r.GetU64();
        const auto it = pending_creates_.find(seq);
        if (it == pending_creates_.end()) {
          return;
        }
        auto cb = std::move(it->second.cb);
        pending_creates_.erase(it);
        if (cb) {
          cb(ok ? Status::Ok() : Status::Failed(msg), id);
        }
        return;
      }
      case kEvNotify: {
        const uint64_t host = r.GetU64();
        const uint64_t hi = r.GetU64();
        const uint64_t lo = r.GetU64();
        const auto it = watches_.find(std::make_tuple(hi, lo, host));
        if (it == watches_.end()) {
          return;
        }
        for (const auto& fire : it->second) {
          fire();
        }
        return;
      }
      case kEvStats: {
        if (r.GetU64() != stats_gen_) {
          return;  // stale reply from a previous collection
        }
        const uint32_t n = r.GetU32();
        std::map<std::string, uint64_t>& slot = stats_by_worker_[widx];
        for (uint32_t i = 0; i < n && r.ok(); ++i) {
          std::string name = r.GetString();
          const uint64_t value = r.GetU64();
          slot[std::move(name)] = value;
        }
        ++stats_received_;
        return;
      }
      default:
        return;  // unknown event: tolerate (forward compatibility)
    }
  }

  void OnWorkerClosed(uint32_t widx) {
    // Commanded kills usually destroy the socket before its close event can
    // fire; the exception is the Hello-time kill, which records kDead first
    // and leaves the channel for this event (or its deferred drop). Anything
    // still live here died on its own — surface it; the scenario's
    // agreement checks will name what broke.
    WorkerState& w = workers_[widx];
    if (w.st != WorkerState::St::kDead) {
      FUSE_LOG(Warning) << "worker " << widx << " exited unexpectedly";
      w.st = WorkerState::St::kDead;
      FailPendingFor(widx);
    }
    // A crash requested against a spawn that died on its own must not carry
    // over and SIGKILL the next incarnation at its Hello.
    w.kill_on_ready = false;
    w.revives.clear();
    w.ctrl.reset();
  }

  void KillWorker(WorkerState& w) {
    if (w.pid > 0) {
      ::kill(w.pid, SIGKILL);  // real fail-stop: the OS reaps via the spawner
    }
    w.ctrl.reset();
  }

  // Fail-stop of one whole machine, whatever its state. Everything pending
  // against its nodes fails with kBroken.
  void KillMachineWorker(uint32_t widx) {
    WorkerState& w = workers_[widx];
    switch (w.st) {
      case WorkerState::St::kReady:
        KillWorker(w);
        w.st = WorkerState::St::kDead;
        break;
      case WorkerState::St::kSpawning:
        // The fork is in flight; kill the process the moment it reports in.
        w.kill_on_ready = true;
        w.revives.clear();
        break;
      case WorkerState::St::kDead:
        FUSE_CHECK(false) << "crash of already-dead worker " << widx;
    }
    FailPendingFor(widx);
  }

  void FailPendingFor(uint32_t widx) {
    FailPendingMatching([widx](uint32_t w, uint64_t host) {
      (void)host;
      return w == widx;
    });
  }

  // Multi-tenant single-node crash: only the victim's pending work breaks;
  // co-tenants' in-flight joins and creates ride on.
  void FailPendingForHost(HostId h) {
    FailPendingMatching([host = h.value](uint32_t w, uint64_t ph) {
      (void)w;
      return ph == host;
    });
  }

  template <typename Pred>
  void FailPendingMatching(Pred&& dead) {
    std::vector<std::function<void(const Status&)>> joins;
    for (auto it = pending_joins_.begin(); it != pending_joins_.end();) {
      if (dead(it->second.widx, it->second.host)) {
        joins.push_back(std::move(it->second.cb));
        it = pending_joins_.erase(it);
      } else {
        ++it;
      }
    }
    std::vector<std::function<void(const Status&, FuseId)>> creates;
    for (auto it = pending_creates_.begin(); it != pending_creates_.end();) {
      if (dead(it->second.widx, it->second.host)) {
        creates.push_back(std::move(it->second.cb));
        it = pending_creates_.erase(it);
      } else {
        ++it;
      }
    }
    for (auto& cb : joins) {
      if (cb) {
        cb(Status::Broken("process: worker died"));
      }
    }
    for (auto& cb : creates) {
      if (cb) {
        cb(Status::Broken("process: worker died"), FuseId());
      }
    }
  }

  void FailLater(std::function<void(const Status&)> cb) {
    if (!cb) {
      return;
    }
    runtime_->Schedule(Duration::Zero(), [cb = std::move(cb)] {
      cb(Status::Broken("process: worker not running"));
    });
  }

  void SendTo(uint32_t widx, const Writer& w) {
    WorkerState& ws = workers_[widx];
    if (ws.ctrl != nullptr && ws.ctrl->open()) {
      SendFrameTo(*ws.ctrl, w);
    }
  }

  void BroadcastAddrs() {
    // Encode the full controller map once (the shared control-protocol
    // codec), send to every live worker; each overlays it onto its fabric.
    Writer w;
    EncodeAddrs(w, cfg_.transport, addr_map_);
    for (uint32_t i = 0; i < workers_.size(); ++i) {
      if (workers_[i].st == WorkerState::St::kReady) {
        SendTo(i, w);
      }
    }
  }

  void SendFaultsTo(uint32_t widx) {
    Writer w;
    w.PutU8(kCmdFaults);
    mirror_.EncodeTo(w);
    SendTo(widx, w);
  }

  void BroadcastFaults() {
    // Encode once, send to every live worker (same shape as BroadcastAddrs).
    Writer w;
    w.PutU8(kCmdFaults);
    mirror_.EncodeTo(w);
    for (uint32_t i = 0; i < workers_.size(); ++i) {
      if (workers_[i].st == WorkerState::St::kReady) {
        SendTo(i, w);
      }
    }
  }

  ProcessClusterConfig cfg_;
  Placement placement_;
  FaultInjector mirror_;
  // The controller's authoritative host -> endpoint map; every worker Hello
  // updates it and the whole map is re-broadcast (workers overlay, so a
  // restarted machine's new port retargets even in-flight retransmits).
  PeerAddressMap addr_map_;
  int spawner_fd_ = -1;
  pid_t spawner_pid_ = -1;
  std::vector<WorkerState> workers_;
  uint64_t next_seq_ = 1;
  // Transport-counter collection state (loop thread only), per worker.
  uint64_t stats_gen_ = 0;
  uint32_t stats_expected_ = 0;
  uint32_t stats_received_ = 0;
  std::vector<std::map<std::string, uint64_t>> stats_by_worker_;
  std::unordered_map<uint64_t, PendingJoin> pending_joins_;
  std::unordered_map<uint64_t, PendingCreate> pending_creates_;
  std::map<std::tuple<uint64_t, uint64_t, uint64_t>, std::vector<std::function<void()>>>
      watches_;
};

// --- ProcessCluster --------------------------------------------------------

ProcessClusterConfig ProcessClusterConfig::FastProtocol(int num_nodes, uint64_t seed) {
  // Derived from the LiveCluster preset so the two wall-clock backends can
  // never drift apart on protocol constants (loopback TCP is far faster than
  // the scaled timeouts, so the same values hold); only the harness wait
  // bounds widen — builds fork real processes and joins cross real TCP
  // handshakes.
  const LiveClusterConfig live = LiveClusterConfig::FastProtocol(num_nodes, seed);
  ProcessClusterConfig cfg;
  cfg.num_nodes = num_nodes;
  cfg.seed = seed;
  cfg.overlay = live.overlay;
  cfg.fuse = live.fuse;
  cfg.timing = live.timing;
  cfg.timing.join_wait = Duration::Seconds(30);
  cfg.timing.restart_wait = Duration::Seconds(30);
  return cfg;
}

namespace {

HarnessConfig HarnessConfigFrom(const ProcessClusterConfig& c) {
  HarnessConfig hc;
  hc.num_nodes = c.num_nodes;
  hc.overlay = c.overlay;
  hc.fuse = c.fuse;
  hc.join_batch = c.join_batch;
  hc.timing = c.timing;
  hc.placement = c.MakePlacement();
  return hc;
}

}  // namespace

ProcessCluster::ProcessCluster(ProcessClusterConfig config)
    : ClusterHarness(std::make_unique<ProcessDeployment>(config), HarnessConfigFrom(config)),
      pd_(static_cast<ProcessDeployment*>(&deployment())),
      joined_(static_cast<size_t>(config.num_nodes), false) {}

ProcessCluster::~ProcessCluster() {
  // This subclass's members (joined_) are destroyed before ~ClusterHarness
  // gets to quiesce the backend, and late worker events (a churn restart's
  // JoinResult) would still dispatch into them from the controller loop.
  // Stop the loop first; the base destructor's PrepareTeardown is idempotent.
  deployment().PrepareTeardown();
}

bool ProcessCluster::IsUp(size_t i) const {
  // A respawning worker is not usable yet (no process to command); sample
  // from the protocol context during churn, as with the other backends.
  return up_[i] && pd_->HostUsable(hosts_[i]);
}

bool ProcessCluster::IsJoined(size_t i) { return joined_[i]; }

void ProcessCluster::CreateNodeInContext(size_t i) {
  pd_->SendCreateNode(hosts_[i], NameOf(i), env().rng().NextU64());
}

void ProcessCluster::JoinFirstInContext(size_t i) {
  pd_->SendJoinFirst(hosts_[i]);
  joined_[i] = true;  // JoinAsFirst cannot fail
}

void ProcessCluster::JoinInContext(size_t i, size_t boot,
                                   std::function<void(const Status&)> done) {
  pd_->SendJoin(hosts_[i], hosts_[boot], /*start_maint=*/false,
                [this, i, done = std::move(done)](const Status& s) {
                  if (s.ok()) {
                    joined_[i] = true;
                  }
                  if (done) {
                    done(s);
                  }
                });
}

void ProcessCluster::StartMaintenanceInContext(size_t i) {
  pd_->SendStartMaintenance(hosts_[i]);
}

void ProcessCluster::LeafExchangeInContext(size_t i) { pd_->SendLeafExchange(hosts_[i]); }

void ProcessCluster::RetireNodeInContext(size_t i) {
  // The node's process state is already gone (SIGKILL for a whole machine,
  // the worker-side graveyard for an in-place kill); nothing in this process
  // holds node state.
  joined_[i] = false;
}

void ProcessCluster::ReviveNodeInContext(size_t i, size_t boot) {
  pd_->QueueRevive(hosts_[i], NameOf(i), env().rng().NextU64(), hosts_[boot],
                   [this, i](const Status& s) {
                     if (s.ok()) {
                       joined_[i] = true;
                     }
                   });
}

void ProcessCluster::CreateGroupInContext(size_t root, std::vector<NodeRef> members,
                                          std::function<void(const Status&, FuseId)> cb) {
  pd_->SendCreateGroup(hosts_[root], members, std::move(cb));
}

void ProcessCluster::WatchGroupMemberInContext(size_t m, FuseId id,
                                               std::function<void()> on_fire) {
  pd_->SendWatch(hosts_[m], id, std::move(on_fire));
}

void ProcessCluster::SignalGroupInContext(size_t node, FuseId id) {
  if (up_[node]) {
    pd_->SendSignal(hosts_[node], id);
  }
}

std::vector<std::map<std::string, uint64_t>> ProcessCluster::TransportCountersByMachine() {
  return pd_->CollectTransportCounters(Duration::Seconds(5));
}

std::map<std::string, uint64_t> ProcessCluster::TransportCounters() {
  std::map<std::string, uint64_t> sum;
  for (const auto& machine : TransportCountersByMachine()) {
    for (const auto& [name, value] : machine) {
      sum[name] += value;
    }
  }
  return sum;
}

}  // namespace fuse

#endif  // defined(__linux__)
