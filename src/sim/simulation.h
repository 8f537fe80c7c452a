// Simulation: the top-level owner of the event queue, the master RNG, and the
// metrics registry for one experiment run.
#ifndef FUSE_SIM_SIMULATION_H_
#define FUSE_SIM_SIMULATION_H_

#include <functional>
#include <memory>

#include "common/metrics.h"
#include "common/rng.h"
#include "sim/environment.h"
#include "sim/event_queue.h"

namespace fuse {

class Simulation : public Environment {
 public:
  explicit Simulation(uint64_t seed) : rng_(seed) {}

  // Environment implementation.
  TimePoint Now() const override { return queue_.Now(); }
  TimerId Schedule(Duration d, UniqueFunction fn) override {
    return queue_.ScheduleAfter(d, std::move(fn));
  }
  bool Cancel(TimerId id) override { return queue_.Cancel(id); }
  Rng& rng() override { return rng_; }
  Metrics& metrics() override { return metrics_; }

  EventQueue& queue() { return queue_; }
  const EventQueue& queue() const { return queue_; }

  void RunFor(Duration d) { queue_.RunFor(d); }
  void RunUntil(TimePoint t) { queue_.RunUntil(t); }
  size_t RunAll(size_t max_events = SIZE_MAX) { return queue_.RunAll(max_events); }

  // Runs until `pred` is true or `deadline` passes; returns pred's final value.
  // Useful for "block until operation completes" patterns in tests.
  bool RunUntilCondition(const std::function<bool()>& pred, TimePoint deadline);

 private:
  EventQueue queue_;
  Rng rng_;
  Metrics metrics_;
};

}  // namespace fuse

#endif  // FUSE_SIM_SIMULATION_H_
