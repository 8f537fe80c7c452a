// Traced calls into the library's layers. Every call the benchmark makes into
// the harness, the engine, FUSE or the service goes through here, so the
// traced run sees one span per call and the untraced run pays one branch.
// The engine calls also keep busy-time and system-CPU tallies, which both
// runs report.
#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

#include <functional>
#include <memory>
#include <vector>

#include "bench.h"
#include "runtime/cluster.h"
#include "trace.h"

namespace perfbench {

class Probe {
 public:
  explicit Probe(fuse::ClusterHarness& cluster) : c_(cluster) {}

  fuse::ClusterHarness& cluster() { return c_; }

  void Build() {
    ScopedSpan s("runtime.Build");
    c_.Build();
  }

  void Run(const std::function<void()>& fn) {
    ScopedSpan s("runtime.Run");
    c_.Run(fn);
  }

  void AdvanceFor(fuse::Duration d) {
    ScopedSpan s("sim.AdvanceFor");
    EngineTally t(this);
    c_.AdvanceFor(d);
  }

  bool Await(const std::function<bool()>& pred, fuse::Duration bound) {
    ScopedSpan s("sim.Await");
    EngineTally t(this);
    return c_.Await(pred, bound);
  }

  // Starts a group create from inside a runtime.Run span. `done` runs where
  // the harness delivers completions; the async span closes there.
  void CreateGroup(size_t root, const std::vector<size_t>& members,
                   std::function<void(const fuse::Status&, fuse::FuseId)> done) {
    const uint32_t span = Tracer::Get().BeginAsync("fuse.CreateGroup");
    Run([&] {
      ScopedSpan s("fuse.CreateGroup");
      c_.CreateGroupInContext(root, c_.RefsOf(members),
                              [span, done = std::move(done)](const fuse::Status& st,
                                                             fuse::FuseId id) {
                                Tracer::Get().EndAsync(span);
                                done(st, id);
                              });
    });
  }

  // Arms one failure watch; the async span runs from arming to the first fire.
  void Watch(size_t member, fuse::FuseId id, std::function<void()> on_fire) {
    const uint32_t span = Tracer::Get().BeginAsync("fuse.Watch");
    Run([&] {
      ScopedSpan s("fuse.Watch");
      c_.WatchGroupMemberInContext(member, id, [span, on_fire = std::move(on_fire)] {
        Tracer::Get().EndAsync(span);
        on_fire();
      });
    });
  }

  void CrashMachine(size_t machine) {
    ScopedSpan s("runtime.CrashMachine");
    c_.CrashMachine(machine);
  }

  void RestartMachine(size_t machine) {
    ScopedSpan s("runtime.RestartMachine");
    c_.RestartMachine(machine);
  }

  int CountRingViolations() {
    ScopedSpan s("overlay.CountRingViolations");
    return c_.CountRingViolations();
  }

  double AvgDistinctNeighbors() {
    ScopedSpan s("overlay.AvgDistinctNeighbors");
    return c_.AvgDistinctNeighbors();
  }

  size_t NumLiveNodes() {
    ScopedSpan s("runtime.NumLiveNodes");
    return c_.NumLiveNodes();
  }

  // Median wall time of an empty Run: one marshal round trip into the
  // protocol context.
  double RunRttUs(int samples = 101) {
    std::vector<double> us;
    for (int i = 0; i < samples; ++i) {
      const int64_t t0 = Tracer::NowNs();
      Run([] {});
      us.push_back(static_cast<double>(Tracer::NowNs() - t0) * 1e-3);
    }
    return Median(us);
  }

  // Wall seconds spent inside AdvanceFor/Await, and system CPU over them.
  double engine_busy_s() const { return busy_s_; }
  double engine_sys_s() const { return sys_s_; }

 private:
  struct EngineTally {
    explicit EngineTally(Probe* p) : p_(p), t0_(Tracer::NowNs()), cpu0_(SelfCpu()) {}
    ~EngineTally() {
      p_->busy_s_ += static_cast<double>(Tracer::NowNs() - t0_) * 1e-9;
      p_->sys_s_ += SelfCpu().sys_s - cpu0_.sys_s;
    }
    Probe* p_;
    int64_t t0_;
    CpuTimes cpu0_;
  };

  fuse::ClusterHarness& c_;
  double busy_s_ = 0;
  double sys_s_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_H_
