// Measuring instruments of the pipeline benchmark.  Everything here observes
// the program from outside: spans are taken around calls into a layer's
// public functions, counts come from the program's own observer seam
// (SimObserver / obs::RunTelemetry) and from a counting DistanceMetric.
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "metric/distance.h"
#include "obs/telemetry.h"
#include "sim/observer.h"

namespace perfbench {

/// Monotonic wall clock in seconds.
double NowS();

/// CPU time the calling thread has used so far, in seconds.  Every timed
/// path runs on the main thread, so a difference of two readings is the
/// time a call ran on a CPU; unlike wall time it leaves out the time a
/// shared host spent running other work while the call waited.  (The
/// process clock would do as well, but while a process-wide CPU timer is
/// armed the kernel advances it only at scheduler ticks.)
double CpuS();

/// Peak resident set size of the process so far (getrusage), in MB.
double PeakRssMb();

/// Percentile by linear interpolation over a copy of `values`; 0 if empty.
double Percentile(std::vector<double> values, double p);

/// Least-squares slope of log(y) against log(x); 0 with fewer than two
/// usable points.
double LogLogSlope(const std::vector<double>& x, const std::vector<double>& y);

/// \brief In-memory span log: one record per timed call into a layer.
///
/// A span's layer is its name up to the first '.'.  Spans nest by call
/// order (the innermost open span is the parent of the next one), and a
/// layer's self time is the time its spans cover minus their children.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
  };

  /// RAII guard; a null log makes it a no-op, so untraced code paths call
  /// the same functions with tracing off.
  class Scope {
   public:
    Scope(SpanLog* log, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    int id_ = -1;
  };

  /// Summed duration of every span named `name`, in seconds.
  double Total(const std::string& name) const;

  /// Self time per layer in seconds (duration minus child spans).
  std::map<std::string, double> SelfTimeByLayer() const;

  /// The spans as a JSON array, in start order.
  std::string ToJson() const;

 private:
  int Begin(const char* name);
  void End(int id);

  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// \brief DistanceMetric that counts calls and forwards to the wrapped
/// metric, batch calls to its batch kernels, so results stay bit-identical.
class CountingMetric : public elink::DistanceMetric {
 public:
  explicit CountingMetric(std::shared_ptr<const elink::DistanceMetric> inner)
      : inner_(std::move(inner)) {}

  double Distance(const elink::Feature& a,
                  const elink::Feature& b) const override;
  void BatchDistance(const elink::Feature& q, const elink::FeaturePool& pool,
                     double* out) const override;
  void BatchDistanceIndexed(const elink::Feature& q,
                            const elink::FeaturePool& pool, const int* idx,
                            size_t count, double* out) const override;

  uint64_t distance_calls() const { return calls_.load(); }
  uint64_t batch_calls() const { return batch_calls_.load(); }

 private:
  std::shared_ptr<const elink::DistanceMetric> inner_;
  mutable std::atomic<uint64_t> calls_{0};
  mutable std::atomic<uint64_t> batch_calls_{0};
};

/// \brief Observer that counts the distinct destinations of routed sends
/// per simulated Network, i.e. the routing tables a run needs.
///
/// A routed send is recognised by its relay hops: SendRouted reports one
/// OnHop per relay under the message's causal id before its OnSend.
class RouteCounter : public elink::SimObserver {
 public:
  void OnCausal(const CausalInfo& info) override { current_msg_ = info.msg; }
  void OnHop(double at, int from, int to, const elink::Message& msg) override;
  void OnSend(double now, int from, int to, const elink::Message& msg,
              double delay) override;

  /// Marks the start of a new Network (one per ELink run, per distributed
  /// query, per maintenance session).
  void NewNetwork();

  uint64_t routed_destinations() const {
    return closed_destinations_ + destinations_.size();
  }
  uint64_t networks() const { return networks_; }

 private:
  uint64_t current_msg_ = 0;
  uint64_t hop_msg_ = 0;
  std::set<int> destinations_;
  uint64_t closed_destinations_ = 0;
  uint64_t networks_ = 0;
};

/// \brief Everything the traced run attaches: spans, the telemetry fold with
/// the route counter chained behind it, and tallies taken around calls.
struct Probes {
  Probes() { telemetry.set_next(&routes); }
  Probes(const Probes&) = delete;
  Probes& operator=(const Probes&) = delete;

  SpanLog spans;
  elink::obs::RunTelemetry telemetry;
  RouteCounter routes;
  /// Named tallies recorded by the workloads.
  std::map<std::string, double> tally;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
