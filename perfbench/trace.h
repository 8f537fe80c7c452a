// Benchmark-side tracing: spans recorded around the calls the benchmark makes
// into each layer of the library, plus counter snapshots taken at the same
// boundaries. Nothing here reaches inside src/; a span measures a call from
// the outside.
//
// Two kinds of span:
//   * call spans nest on a stack (runtime.Run around fuse.CreateGroup, ...).
//     A layer's self time is the sum, over its call spans, of the span's
//     duration minus the part covered by its child call spans.
//   * async spans run from a call to its completion (fuse.CreateGroup call ->
//     callback, fuse.Watch arm -> fire). They overlap the call spans that do
//     the work, so they carry latency, not self time.
//
// Spans stay in memory; WriteJson dumps them when the benchmark ends. When
// tracing is off every entry point returns after one branch.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    uint32_t id = 0;
    uint32_t parent = 0;  // 0 = root
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    bool async = false;
  };

  // The one tracer of the process.
  static Tracer& Get();

  void Enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  // Call spans. `name` must be a string literal ("<layer>.<call>").
  uint32_t Begin(const char* name);
  void End(uint32_t id);

  // Async spans: parent is the innermost open call span when it starts.
  uint32_t BeginAsync(const char* name);
  // Thread-safe: completions may run on a runtime's loop thread.
  void EndAsync(uint32_t id);

  // Counter snapshot at a span boundary (name -> value), kept in order.
  void Counter(const char* name, double value);

  // Self time per layer (the text before the first '.'), in seconds.
  std::map<std::string, double> LayerSelfSeconds() const;
  // Total duration and count of call spans with this name.
  double CallTotalSeconds(const std::string& name, uint64_t* count) const;

  size_t NumSpans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

  bool WriteJson(const std::string& path) const;

  static int64_t NowNs();

 private:
  struct CounterSample {
    const char* name;
    int64_t t_ns;
    double value;
  };

  bool enabled_ = false;
  // Guards spans_ and counters_: async completions may arrive on a runtime's
  // loop thread while the driving thread opens new spans.
  mutable std::mutex mu_;
  std::vector<Span> spans_;         // index = id - 1
  std::vector<uint32_t> stack_;     // open call spans
  std::vector<CounterSample> counters_;
};

// RAII call span; a no-op when tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : id_(Tracer::Get().enabled() ? Tracer::Get().Begin(name) : 0) {}
  ~ScopedSpan() {
    if (id_ != 0) {
      Tracer::Get().End(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  uint32_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
