// perfbench: one run of one workload of the end-to-end pipeline benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--nodes <n>] [--wrong-oracle] [--spans-out <file>]
//
// Prints every metric as "<name> <value> <unit>", then, as the last line,
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--nodes <n>] [--wrong-oracle] "
               "[--spans-out <file>]\n",
               why);
  return 2;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  std::string spans_out;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--wrong-oracle") {
      opt.wrong_oracle = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      opt.trace = std::strcmp(value, "0") != 0;
      have_trace = true;
    } else if (arg == "--nodes") {
      opt.nodes = std::atoi(value);
    } else if (arg == "--spans-out") {
      spans_out = value;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  bool known = false;
  for (const std::string& w : perfbench::WorkloadNames()) {
    known = known || w == opt.workload;
  }
  if (!known) return Usage(("unknown workload '" + opt.workload + "'").c_str());
  if (!have_trace || !(opt.seconds > 0.0) || opt.nodes < 0) {
    return Usage("--trace and a positive --seconds are required");
  }

  const perfbench::RunResult result = perfbench::RunWorkload(opt);

  const auto& declared =
      opt.trace ? perfbench::PerLayerMetrics() : perfbench::EndToEndMetrics();
  std::string metrics_json;
  for (const auto& [name, unit] : declared) {
    const perfbench::Metric* found = nullptr;
    for (const perfbench::Metric& m : result.metrics) {
      if (m.name == name) found = &m;
    }
    if (found == nullptr) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                   name.c_str());
      return 4;
    }
    std::printf("%-32s %.6g %s\n", name.c_str(), found->value, unit.c_str());
    if (!metrics_json.empty()) metrics_json += ", ";
    metrics_json += "\"" + name + "\": {\"value\": " +
                    JsonNumber(found->value) + ", \"unit\": \"" + unit + "\"}";
  }
  std::printf("failed_frac %.6g (%llu failed of %llu attempted)\n",
              static_cast<double>(result.failed) /
                  static_cast<double>(result.attempted > 0 ? result.attempted
                                                           : 1),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));
  if (!spans_out.empty() && !result.spans_json.empty()) {
    FILE* f = std::fopen(spans_out.c_str(), "w");
    if (f != nullptr) {
      std::fputs(result.spans_json.c_str(), f);
      std::fclose(f);
    }
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": "
      "{%s}}\n",
      result.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), metrics_json.c_str());
  return 0;
}
