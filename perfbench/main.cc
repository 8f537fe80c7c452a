// fusebench: the repository benchmark.
//
//   fusebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>] [--threads <n>]
//   fusebench --contract-selftest
//
// Prints every end-to-end metric by name and unit, then one JSON line:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}} holding
// the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// Exits 1 on any FUSE contract violation (missed, duplicate, spurious or
// partial notification, ring violations after Build, unexplained create
// failures), 2 on bad arguments. perfbench/run.py checks the metric names
// against BENCHMARK.json.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"
#include "common/logging.h"
#include "trace.h"

namespace {

using namespace perfbench;

int Usage() {
  std::fprintf(stderr,
               "usage: fusebench --workload <sim_overlay_churn|sim_groups_service|"
               "proc_udp_machine_crash> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <file>] [--threads <n>]\n"
               "       fusebench --contract-selftest\n");
  return 2;
}

// Wall cost of one call span, measured on a private tracer.
double SpanCostSeconds() {
  Tracer t;
  t.Enable(true);
  const int n = 20000;
  const int64_t t0 = Tracer::NowNs();
  for (int i = 0; i < n; ++i) {
    t.End(t.Begin("bench.calibrate"));
  }
  return static_cast<double>(Tracer::NowNs() - t0) * 1e-9 / n;
}

// Adds the figures only the tracer can give: self time per layer, the
// service's call and drain times, and the estimated tracing overhead.
void AddTraceFigures(RunResult& r) {
  const Tracer& t = Tracer::Get();
  const std::map<std::string, double> self = t.LayerSelfSeconds();
  for (const char* layer : {"sim", "overlay", "fuse", "service", "transport", "runtime"}) {
    const auto it = self.find(layer);
    r.Layer(std::string(layer) + ".self_s", "s", it == self.end() ? 0 : it->second);
  }
  uint64_t n = 0;
  const double call_s = t.CallTotalSeconds("service.Create", &n);
  r.Layer("service.create_call_us", "us", n > 0 ? call_s * 1e6 / n : 0);
  r.Layer("service.drain_s", "s", t.CallTotalSeconds("service.Drain", &n));
  const double spans = static_cast<double>(t.NumSpans());
  r.Layer("bench.trace_spans", "count", spans);
  r.Layer("bench.trace_overhead_s", "s", spans * SpanCostSeconds());
}

void PrintMetrics(const char* title, const std::vector<Metric>& ms) {
  std::printf("%s\n", title);
  for (const Metric& m : ms) {
    std::printf("  %-34s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--contract-selftest") {
      std::string why;
      if (!ContractSelfTest(&why)) {
        std::printf("contract self-test FAILED: %s\n", why.c_str());
        return 1;
      }
      std::printf(
          "contract self-test ok: duplicate, missing, spurious and partial notifications "
          "all rejected\n");
      return 0;
    } else if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_value) {
      opt.trace = std::atoi(argv[++i]) != 0;
    } else if (a == "--trace-out" && has_value) {
      opt.trace_path = argv[++i];
    } else if (a == "--threads" && has_value) {
      opt.threads = std::atoi(argv[++i]);
    } else {
      return Usage();
    }
  }
  if (opt.workload.empty() || !have_seed || opt.seconds <= 0 || opt.threads < 1) {
    return Usage();
  }
  fuse::SetLogThreshold(fuse::LogLevel::kError);
  Tracer::Get().Enable(opt.trace);

  RunResult r;
  if (opt.workload == "sim_overlay_churn") {
    r = RunSimOverlayChurn(opt);
  } else if (opt.workload == "sim_groups_service") {
    r = RunSimGroupsService(opt);
  } else if (opt.workload == "proc_udp_machine_crash") {
    r = RunProcUdpMachineCrash(opt);
  } else {
    return Usage();
  }
  AddTraceFigures(r);

  std::printf("workload %s seed %llu seconds %g trace %d\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
  for (const std::string& n : r.notes) {
    std::printf("%s\n", n.c_str());
  }
  PrintMetrics("end-to-end:", r.end_to_end);
  if (opt.trace) {
    PrintMetrics("per-layer:", r.per_layer);
    if (!opt.trace_path.empty() && !Tracer::Get().WriteJson(opt.trace_path)) {
      std::fprintf(stderr, "fusebench: cannot write %s\n", opt.trace_path.c_str());
    }
  }
  for (const std::string& v : r.violations) {
    std::printf("VIOLATION: %s\n", v.c_str());
  }
  const bool correct = r.violations.empty();

  const std::vector<Metric>& shown = opt.trace ? r.per_layer : r.end_to_end;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (size_t i = 0; i < shown.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i > 0 ? ", " : "",
                shown[i].name.c_str(), shown[i].value, shown[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}
