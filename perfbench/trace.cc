#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench {

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

int64_t Tracer::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint32_t Tracer::Begin(const char* name) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.id = static_cast<uint32_t>(spans_.size() + 1);
  s.parent = stack_.empty() ? 0 : stack_.back();
  s.name = name;
  s.start_ns = now;
  spans_.push_back(s);
  stack_.push_back(s.id);
  return s.id;
}

void Tracer::End(uint32_t id) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end_ns = now;
  if (!stack_.empty() && stack_.back() == id) {
    stack_.pop_back();
  }
}

uint32_t Tracer::BeginAsync(const char* name) {
  if (!enabled_) {
    return 0;
  }
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.id = static_cast<uint32_t>(spans_.size() + 1);
  s.parent = stack_.empty() ? 0 : stack_.back();
  s.name = name;
  s.start_ns = now;
  s.async = true;
  spans_.push_back(s);
  return s.id;
}

void Tracer::EndAsync(uint32_t id) {
  if (id == 0) {
    return;
  }
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_[id - 1].end_ns == 0) {
    spans_[id - 1].end_ns = now;
  }
}

void Tracer::Counter(const char* name, double value) {
  if (!enabled_) {
    return;
  }
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  counters_.push_back({name, now, value});
}

std::map<std::string, double> Tracer::LayerSelfSeconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int64_t> child_ns(spans_.size() + 1, 0);
  for (const Span& s : spans_) {
    if (!s.async && s.parent != 0 && s.end_ns != 0) {
      child_ns[s.parent] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> self;
  for (const Span& s : spans_) {
    if (s.async || s.end_ns == 0) {
      continue;
    }
    const std::string name(s.name);
    const std::string layer = name.substr(0, name.find('.'));
    self[layer] += static_cast<double>(s.end_ns - s.start_ns - child_ns[s.id]) * 1e-9;
  }
  return self;
}

double Tracer::CallTotalSeconds(const std::string& name, uint64_t* count) const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0;
  *count = 0;
  for (const Span& s : spans_) {
    if (!s.async && s.end_ns != 0 && name == s.name) {
      total += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
      ++*count;
    }
  }
  return total;
}

bool Tracer::WriteJson(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  // A run can hold hundreds of thousands of spans; the file keeps the first
  // kMaxWritten (the self-time figures cover all of them).
  constexpr size_t kMaxWritten = 50000;
  const size_t written = std::min(spans_.size(), kMaxWritten);
  const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"spans_total\": %zu,\n\"spans\": [\n", spans_.size());
  for (size_t i = 0; i < written; ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "  {\"id\": %u, \"parent\": %u, \"name\": \"%s\", \"async\": %s, "
                 "\"start_us\": %.3f, \"end_us\": %.3f}%s\n",
                 s.id, s.parent, s.name, s.async ? "true" : "false",
                 static_cast<double>(s.start_ns - t0) * 1e-3,
                 s.end_ns == 0 ? -1.0 : static_cast<double>(s.end_ns - t0) * 1e-3,
                 i + 1 < written ? "," : "");
  }
  std::fprintf(f, "],\n\"counters\": [\n");
  for (size_t i = 0; i < counters_.size(); ++i) {
    const CounterSample& c = counters_[i];
    std::fprintf(f, "  {\"name\": \"%s\", \"t_us\": %.3f, \"value\": %.17g}%s\n", c.name,
                 static_cast<double>(c.t_ns - t0) * 1e-3, c.value,
                 i + 1 < counters_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
