// The benchmark harness: runs one workload for --seconds and prints its
// metrics. Untraced runs (--trace 0) print the end-to-end metrics;
// traced runs (--trace 1) time the same phase untraced and then traced,
// and print the per-layer metrics plus the tracing overhead. The last
// line of standard output is the JSON result; the lines before it are
// the stamp and the human-readable table.
//
//   perfbench_harness --workload serve_recursive --seed 1 --seconds 10
//                     --trace 0 --out-dir DIR [--small] [--corrupt-oracle]

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <set>
#include <string>
#include <thread>
#include <utility>

#include "harness/common.h"
#include "harness/workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unspecified"
#endif

namespace perfbench {
namespace {

/// Steal and total CPU ticks of all CPUs (the "cpu" line of
/// /proc/stat); zeros when unreadable.
std::pair<double, double> CpuStealAndTotal() {
  std::ifstream in("/proc/stat");
  std::string label;
  double steal = 0, total = 0;
  if (in >> label && label == "cpu") {
    // user nice system idle iowait irq softirq steal
    for (int field = 0; field < 8; ++field) {
      double ticks = 0;
      if (!(in >> ticks)) break;
      total += ticks;
      if (field == 7) steal = ticks;
    }
  }
  return {steal, total};
}

std::string FirstLine(const char* path) {
  std::ifstream in(path);
  std::string line;
  if (!in || !std::getline(in, line) || line.empty()) return "unknown";
  return line;
}

RunOptions ParseArgs(int argc, char** argv) {
  RunOptions o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      o.trace = value() == "1";
    } else if (arg == "--out-dir") {
      o.out_dir = value();
    } else if (arg == "--small") {
      o.small = true;
    } else if (arg == "--corrupt-oracle") {
      o.corrupt_oracle = true;
    } else {
      Die("unknown argument " + arg);
    }
  }
  if (o.workload.empty() || !have_seed || o.out_dir.empty()) {
    Die("usage: perfbench_harness --workload W --seed N --seconds S "
        "--trace 0|1 --out-dir DIR [--small] [--corrupt-oracle]");
  }
  if (!(o.seconds > 0 && o.seconds <= 120)) Die("--seconds out of range");
  return o;
}

/// Prints a number with every digit a double carries.
std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Main(int argc, char** argv) {
  const RunOptions options = ParseArgs(argc, argv);
  const auto [steal0, total0] = CpuStealAndTotal();
  Outcome out;
  if (options.workload == "serve_recursive") {
    out = RunServeRecursive(options);
  } else if (options.workload == "update_feed") {
    out = RunUpdateFeed(options);
  } else {
    Die("unknown workload " + options.workload);
  }

  // CPU time the hypervisor gave to other guests while this run went
  // on: runs with a high share are slowed by the host, not the engine.
  const auto [steal1, total1] = CpuStealAndTotal();
  char steal_pct[32];
  std::snprintf(steal_pct, sizeof(steal_pct), "%.1f%%",
                total1 > total0 ? 100.0 * (steal1 - steal0) / (total1 - total0)
                                : 0.0);
  std::cout << "# perfbench workload=" << options.workload
            << " seed=" << options.seed << " seconds=" << options.seconds
            << " trace=" << (options.trace ? 1 : 0)
            << " nproc=" << std::thread::hardware_concurrency()
            << " build=" << PERFBENCH_BUILD_TYPE << " governor="
            << FirstLine(
                   "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
            << " host_steal=" << steal_pct
            << "\n# shape: " << out.shape << "\n";
  for (const std::string& line : out.table) std::cout << "#   " << line << "\n";
  const double failed_ratio = static_cast<double>(out.failed) /
                              static_cast<double>(out.attempted);
  std::cout << "#   failed_ratio = " << Num(failed_ratio) << " ("
            << out.failed << " failed of " << out.attempted << " attempted)\n";

  std::vector<Metric> metrics;
  if (options.trace) {
    std::set<std::string> declared;
    for (const LayerSpec& spec : LayerMetrics()) {
      declared.insert(spec.name);
      auto it = out.layers.find(spec.name);
      metrics.push_back(
          {spec.name, it == out.layers.end() ? 0.0 : it->second, spec.unit});
    }
    for (const auto& [name, value] : out.layers) {
      if (declared.count(name) == 0) Die("undeclared layer metric " + name);
    }
  } else {
    metrics = out.e2e;
  }
  for (const Metric& m : metrics) {
    std::cout << "#   " << m.name << " = " << Num(m.value) << " " << m.unit
              << "\n";
  }

  std::string json = "{\"correct\": ";
  json += out.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + Num(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return out.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const int code = perfbench::Main(argc, argv);
  std::fflush(nullptr);
  return code;
}
