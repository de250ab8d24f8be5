// The benchmark's workloads: each builds its inputs from the seed, times the
// pipeline through the program's public API, checks every output outside
// the timed regions, and reports either the end-to-end metrics (untraced
// run) or the per-layer metrics (traced run).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Node count override (0 keeps the workload's own size); the self-test
  /// uses it to run every workload at a tiny N.
  int nodes = 0;
  /// Negative self-test: every range-query oracle answer is off by one, so
  /// every checked range query must be counted as failed.
  bool wrong_oracle = false;
};

/// One named metric value with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// The traced run's spans as JSON (empty when untraced).
  std::string spans_json;

  void Set(const std::string& name, double value, const std::string& unit);
  /// Counts one checked operation; a false `ok` counts it as failed and
  /// prints `what` to stderr.
  void Check(bool ok, const std::string& what);
};

/// Workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// End-to-end metric names and units (the untraced run prints all of them).
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();

/// Per-layer metric names and units (the traced run prints all of them;
/// layers a workload does not exercise read 0).
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// Runs one workload.  Exits the process on an input-generation error.
RunResult RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
