#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>

#include "check/invariants.h"
#include "cluster/elink.h"
#include "cluster/maintenance_protocol.h"
#include "common/rng.h"
#include "core/clustered_network.h"
#include "data/synthetic.h"
#include "index/backbone.h"
#include "index/mtree.h"
#include "index/path_query_protocol.h"
#include "index/query_protocol.h"
#include "linalg/matrix.h"
#include "metric/feature_pool.h"
#include "host_speed.h"
#include "probes.h"
#include "serve/session.h"
#include "serve/workload.h"
#include "sim/topology.h"
#include "timeseries/rls.h"

namespace perfbench {

using namespace elink;

void RunResult::Set(const std::string& name, double value,
                    const std::string& unit) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back({name, value, unit});
}

void RunResult::Check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "cluster-explicit", "cluster-implicit", "query-mix", "serve-mixed"};
  return names;
}

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> m = {
      {"setup_s", "s"},     {"cluster_s", "s"},   {"peak_rss_mb", "MB"},
      {"msg_units", "units"}, {"ops_per_s", "1/s"},
      {"op_p50_ms", "ms"},  {"op_p95_ms", "ms"}};
  return m;
}

namespace {

const char* const kLayers[] = {"common", "linalg", "timeseries", "metric",
                               "sim",    "data",   "cluster",    "index",
                               "core",   "proto",  "obs",        "serve",
                               "check"};

}  // namespace

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> m = [] {
    std::vector<std::pair<std::string, std::string>> v = {
        {"data.generate_ms", "ms"},
        {"data.rss_growth_mb", "MB"},
        {"timeseries.observations", "count"},
        {"timeseries.refit_ms", "ms"},
        {"sim.topology_ms", "ms"},
        {"sim.avg_degree", "count"},
        {"sim.edges", "count"},
        {"sim.topology_slope", "slope"},
        {"sim.events", "count"},
        {"sim.events_per_s", "1/s"},
        {"sim.sends", "count"},
        {"sim.hops", "count"},
        {"sim.delivers", "count"},
        {"sim.routed_destinations", "count"},
        {"sim.networks_built", "count"},
        {"proto.wire_bytes", "bytes"},
        {"proto.decode_errors", "count"},
        {"cluster.elink_ms", "ms"},
        {"cluster.clusters", "count"},
        {"cluster.switches", "count"},
        {"cluster.repaired_fragments", "count"},
        {"cluster.sim_completion_time", "sim"},
        {"cluster.maintenance_apply_us", "us"},
        {"cluster.maintenance_units", "units"},
        {"cluster.elink_slope", "slope"},
        {"cluster.rss_growth_mb", "MB"},
        {"index.mtree_build_ms", "ms"},
        {"index.backbone_build_ms", "ms"},
        {"index.rebuild_ms", "ms"},
        {"index.rebuilds", "count"},
        {"index.range_protocol_ms", "ms"},
        {"index.path_protocol_ms", "ms"},
        {"index.query_units", "units"},
        {"index.range_matches", "count"},
        {"index.query_sim_latency", "sim"},
        {"index.build_slope", "slope"},
        {"index.range_protocol_slope", "slope"},
        {"index.rss_growth_mb", "MB"},
        {"core.build_ms", "ms"},
        {"metric.distance_calls", "count"},
        {"metric.batch_distance_calls", "count"},
        {"serve.range_hit_us", "us"},
        {"serve.range_miss_us", "us"},
        {"serve.path_hit_us", "us"},
        {"serve.path_miss_us", "us"},
        {"serve.hit_rate", "ratio"},
        {"serve.lookups", "count"},
        {"serve.publishes", "count"},
        {"serve.views_built", "count"},
        {"serve.epoch_bumps", "count"},
        {"serve.stale_evictions", "count"},
        {"serve.update_p50_us", "us"},
        {"serve.update_p99_us", "us"},
        {"obs.trace_overhead_frac", "ratio"},
        {"check.validate_ms", "ms"},
        {"check.failures", "count"},
    };
    for (const char* layer : kLayers) {
      v.push_back({std::string("self.") + layer + "_ms", "ms"});
    }
    return v;
  }();
  return m;
}

namespace {

// -- Shared pieces ------------------------------------------------------------

/// Setup is repeated this many times per run; setup_s is the median.  The
/// query and serve set-ups are short, so they repeat more often to steady
/// the cluster_s they also yield.
constexpr int kSetupReps = 3;
constexpr int kShortSetupReps = 11;
/// Future readings generated per node; bounds the update rounds of a run.
constexpr int kStreamLength = 400;

using Clock = std::chrono::steady_clock;

[[noreturn]] void Die(const std::string& what, const Status& status) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(3);
}

uint64_t Fnv(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}

uint64_t FnvDouble(uint64_t h, double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return Fnv(h, bits);
}

constexpr uint64_t kFnvBasis = 14695981039346656037ULL;

double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }

SpanLog* SpansOf(Probes* probes) {
  return probes != nullptr ? &probes->spans : nullptr;
}

/// The deployment is the synthetic generator's default one at `nodes`
/// nodes, the same for every --seed.  Its force-connected radio range makes
/// the average degree (and with it every cost) jump between seeds by
/// factors up to 3, so the run seed instead drives what happens on the
/// deployment: ELink's message delays, the stream offsets of the feature
/// updates, the update order and the query predicates.
SyntheticConfig DatasetConfig(int nodes) {
  SyntheticConfig cfg;
  cfg.num_nodes = nodes;
  cfg.stream_length = kStreamLength;
  return cfg;
}

/// Dataset plus the scale its thresholds are drawn against.
struct Inputs {
  SensorDataset ds;
  /// 90th percentile of the feature distances across radio links; delta
  /// and path gammas are fractions of it.  A quantile over all links keeps
  /// the thresholds, and with them the clustering's shape, steady across
  /// seeds, where an extreme such as the largest distance would not.
  double scale = 1.0;
};

Inputs Generate(int nodes, Probes* probes) {
  Inputs in;
  {
    SpanLog::Scope span(SpansOf(probes), "data.generate");
    Result<SensorDataset> ds = MakeSyntheticDataset(DatasetConfig(nodes));
    if (!ds.ok()) Die("dataset", ds.status());
    in.ds = std::move(ds).value();
  }
  SpanLog::Scope span(SpansOf(probes), "metric.calibrate");
  std::vector<double> link;
  const Topology& topo = in.ds.topology;
  for (int u = 0; u < topo.num_nodes(); ++u) {
    for (int v : topo.adjacency[u]) {
      if (u < v) {
        link.push_back(in.ds.metric->Distance(in.ds.features[u],
                                              in.ds.features[v]));
      }
    }
  }
  in.scale = Percentile(std::move(link), 0.9);
  return in;
}

/// Times MakeRandomTopologyWithDegree alone with the dataset's parameters
/// and seed; the result must be the dataset's own topology.
double TimeTopology(int nodes, const Topology* expect,
                    Probes* probes, RunResult* out) {
  const SyntheticConfig cfg = DatasetConfig(nodes);
  Rng rng(cfg.seed);
  const double t0 = CpuS();
  Result<Topology> topo = [&] {
    SpanLog::Scope span(SpansOf(probes), "sim.topology");
    return MakeRandomTopologyWithDegree(cfg.num_nodes, cfg.density,
                                        cfg.target_avg_degree, &rng);
  }();
  const double secs = CpuS() - t0;
  if (!topo.ok()) Die("topology", topo.status());
  if (expect != nullptr) {
    out->Check(topo.value().adjacency == expect->adjacency,
               "topology regenerated from the seed differs from the "
               "dataset's");
  }
  return secs;
}

// -- Clustering pipeline: ELink + cluster trees + M-tree + backbone -----------

struct Pipeline {
  ElinkResult elink;
  std::vector<int> tree_parent;
  std::unique_ptr<ClusterIndex> index;
  std::unique_ptr<Backbone> backbone;
  MessageStats stats;
  double elink_s = 0.0;
  double mtree_s = 0.0;
  double backbone_s = 0.0;
  double total_s = 0.0;
  double rss_before_mb = 0.0;
  double peak_after_elink_mb = 0.0;
  double peak_after_index_mb = 0.0;

  uint64_t Digest() const {
    uint64_t h = kFnvBasis;
    for (int r : elink.clustering.root_of) {
      h = Fnv(h, static_cast<uint64_t>(r));
    }
    h = Fnv(h, stats.total_units());
    return FnvDouble(h, elink.completion_time);
  }
};

struct ClusterParams {
  ElinkMode mode = ElinkMode::kImplicit;
  bool synchronous = true;
  double slack_fraction = 0.0;
};

Pipeline RunPipeline(const SensorDataset& ds, const DistanceMetric& metric,
                     double delta, const ClusterParams& params,
                     uint64_t seed, Probes* probes) {
  ElinkConfig cfg;
  cfg.delta = delta;
  cfg.slack = params.slack_fraction * delta;
  cfg.synchronous = params.synchronous;
  cfg.seed = seed;
  if (probes != nullptr) {
    cfg.observer = &probes->telemetry;
    probes->routes.NewNetwork();
  }
  Pipeline p;
  p.rss_before_mb = PeakRssMb();
  const double t0 = CpuS();
  {
    SpanLog::Scope span(SpansOf(probes), "cluster.elink");
    Result<ElinkResult> r =
        RunElink(ds.topology, ds.features, metric, cfg, params.mode);
    if (!r.ok()) Die("elink", r.status());
    p.elink = std::move(r).value();
  }
  const double t1 = CpuS();
  p.peak_after_elink_mb = PeakRssMb();
  p.stats.Merge(p.elink.stats);
  {
    SpanLog::Scope span(SpansOf(probes), "cluster.build_trees");
    p.tree_parent =
        BuildClusterTrees(p.elink.clustering, ds.topology.adjacency);
  }
  {
    SpanLog::Scope span(SpansOf(probes), "index.mtree_build");
    p.index = std::make_unique<ClusterIndex>(ClusterIndex::Build(
        p.elink.clustering, p.tree_parent, ds.features, metric, &p.stats));
  }
  const double t2 = CpuS();
  {
    SpanLog::Scope span(SpansOf(probes), "index.backbone_build");
    p.backbone = std::make_unique<Backbone>(
        Backbone::Build(p.elink.clustering, ds.topology.adjacency, &p.stats,
                        &ds.features, &metric));
  }
  p.total_s = ElapsedS(t0);
  const double t3 = CpuS();
  p.peak_after_index_mb = PeakRssMb();
  p.elink_s = t1 - t0;
  p.mtree_s = t2 - t1;
  p.backbone_s = t3 - t2;
  return p;
}

/// Definition 1 and the Section 7.1 index invariants on a pipeline's output.
void CheckPipeline(const SensorDataset& ds, const DistanceMetric& metric,
                   double delta, const Pipeline& p, Probes* probes,
                   RunResult* out) {
  SpanLog::Scope span(SpansOf(probes), "check.pipeline");
  out->Check(p.elink.completed && p.elink.unclustered_nodes == 0,
             "ELink run did not complete");
  Status s = check::CheckDeltaClustering(p.elink.clustering,
                                         ds.topology.adjacency, ds.features,
                                         metric, delta);
  out->Check(s.ok(), "CheckDeltaClustering: " + s.ToString());
  s = check::CheckMTreeInvariants(*p.index, p.elink.clustering, p.tree_parent,
                                  ds.features, metric);
  out->Check(s.ok(), "CheckMTreeInvariants: " + s.ToString());
}

// -- Traced-run bookkeeping ---------------------------------------------------

/// Zeroes every per-layer metric so each traced run prints the full set.
void InitPerLayer(RunResult* out) {
  for (const auto& [name, unit] : PerLayerMetrics()) out->Set(name, 0.0, unit);
}

/// Folds the probes' counts and spans into the per-layer metrics.
void FinishPerLayer(Probes& probes, const CountingMetric& counting,
                    uint64_t seed, RunResult* out) {
  obs::RunReport report;
  {
    SpanLog::Scope span(&probes.spans, "obs.report");
    report = probes.telemetry.MakeReport("perfbench", seed, MessageStats());
  }
  const obs::MetricsRegistry& m = probes.telemetry.metrics();
  out->Set("sim.events", static_cast<double>(report.events), "count");
  out->Set("sim.sends", static_cast<double>(m.counter("sim.sends")), "count");
  out->Set("sim.hops", static_cast<double>(m.counter("sim.hops")), "count");
  out->Set("sim.delivers", static_cast<double>(m.counter("sim.delivers")),
           "count");
  out->Set("proto.wire_bytes",
           static_cast<double>(m.counter("sim.wire_bytes")), "bytes");
  out->Set("proto.decode_errors",
           static_cast<double>(m.counter("sim.decode_errors")), "count");
  out->Set("sim.routed_destinations",
           static_cast<double>(probes.routes.routed_destinations()), "count");
  out->Set("sim.networks_built",
           static_cast<double>(probes.routes.networks()), "count");
  const double sim_busy_s = probes.spans.Total("cluster.elink") +
                            probes.spans.Total("index.range_protocol") +
                            probes.spans.Total("index.path_protocol") +
                            probes.spans.Total("cluster.maintenance_apply");
  out->Set("sim.events_per_s",
           sim_busy_s > 0.0 ? static_cast<double>(report.events) / sim_busy_s
                            : 0.0,
           "1/s");
  out->Set("metric.distance_calls",
           static_cast<double>(counting.distance_calls()), "count");
  out->Set("metric.batch_distance_calls",
           static_cast<double>(counting.batch_calls()), "count");
  for (const char* name : {"data.generate", "timeseries.refit",
                           "sim.topology", "cluster.elink",
                           "index.mtree_build", "index.backbone_build",
                           "index.rebuild", "index.range_protocol",
                           "index.path_protocol", "core.build"}) {
    out->Set(std::string(name) + "_ms", 1e3 * probes.spans.Total(name), "ms");
  }
  double check_s = 0.0;
  for (const char* name : {"check.pipeline", "check.queries",
                           "check.serve_audit", "check.maintenance"}) {
    check_s += probes.spans.Total(name);
  }
  out->Set("check.validate_ms", 1e3 * check_s, "ms");
  out->Set("check.failures", static_cast<double>(out->failed), "count");
  const std::map<std::string, double> self = probes.spans.SelfTimeByLayer();
  for (const char* layer : kLayers) {
    const auto it = self.find(layer);
    out->Set(std::string("self.") + layer + "_ms",
             it == self.end() ? 0.0 : 1e3 * it->second, "ms");
  }
  out->spans_json = probes.spans.ToJson();
}

void SetTopologyMetrics(const Topology& topo, RunResult* out) {
  out->Set("sim.avg_degree", topo.average_degree(), "count");
  out->Set("sim.edges", static_cast<double>(topo.num_edges()), "count");
}

// -- cluster-explicit / cluster-implicit --------------------------------------

struct ClusterWorkload {
  int nodes;
  ClusterParams params;
  std::vector<double> delta_fractions;
};

struct ClusterRep {
  std::vector<Pipeline> pipelines;
  double seconds = 0.0;
  uint64_t digest = kFnvBasis;
  uint64_t units = 0;
  double sim_time = 0.0;
};

ClusterRep RunClusterRep(const Inputs& in, const DistanceMetric& metric,
                         const ClusterWorkload& w, uint64_t seed,
                         Probes* probes) {
  ClusterRep rep;
  for (double frac : w.delta_fractions) {
    Pipeline p =
        RunPipeline(in.ds, metric, frac * in.scale, w.params, seed, probes);
    rep.seconds += p.total_s;
    rep.digest = Fnv(rep.digest, p.Digest());
    rep.units += p.stats.total_units();
    rep.sim_time += p.elink.completion_time;
    rep.pipelines.push_back(std::move(p));
  }
  return rep;
}

void CheckClusterRep(const Inputs& in, const DistanceMetric& metric,
                     const ClusterWorkload& w, const ClusterRep& rep,
                     Probes* probes, RunResult* out) {
  for (size_t i = 0; i < rep.pipelines.size(); ++i) {
    CheckPipeline(in.ds, metric, w.delta_fractions[i] * in.scale,
                  rep.pipelines[i], probes, out);
  }
}

/// Prints how fast the host ran the calibration kernel during a run.
void ReportHostSpeed(const HostSpeed& speed) {
  std::printf("host speed: calibration kernel median %.4f ms over %llu "
              "samples (reference %.4f ms)\n",
              speed.median_kernel_ms(),
              static_cast<unsigned long long>(speed.samples()),
              HostSpeed::kReferenceKernelMs);
}

RunResult RunClusterUntraced(const RunOptions& opt, const ClusterWorkload& w) {
  RunResult out;
  HostSpeed& speed = HostSpeed::Start();
  std::vector<double> setup_s;
  Inputs in;
  for (int r = 0; r < kSetupReps; ++r) {
    in = Inputs();
    const double t0 = CpuS();
    in = Generate(w.nodes, nullptr);
    setup_s.push_back(ElapsedS(t0));
  }
  const DistanceMetric& metric = *in.ds.metric;

  // Timed phase: whole reps (every delta once) until the budget is spent.
  // The first rep is checked in full; later reps must reproduce its digest.
  // An operation is one rep: the deployment clustered at every delta.
  // Rates are medians over reps (rounds, read windows) so that a burst of
  // machine noise moves one sample, not the run's figure.
  std::vector<double> rep_mean_s, rep_rate, rep_ms;
  const double start = NowS();
  uint64_t first_digest = 0, units = 0;
  do {
    ClusterRep rep = RunClusterRep(in, metric, w, opt.seed, nullptr);
    rep_mean_s.push_back(rep.seconds / rep.pipelines.size());
    rep_rate.push_back(1.0 / rep.seconds);
    rep_ms.push_back(1e3 * rep.seconds);
    if (rep_mean_s.size() == 1) {
      CheckClusterRep(in, metric, w, rep, nullptr, &out);
      first_digest = rep.digest;
      units = rep.units;
    } else {
      out.Check(rep.digest == first_digest,
                "repeated clustering on the same inputs changed its output");
    }
  } while (NowS() - start < opt.seconds);
  speed.Stop();
  ReportHostSpeed(speed);

  out.Set("setup_s", Median(setup_s), "s");
  out.Set("cluster_s", Median(rep_mean_s), "s");
  out.Set("peak_rss_mb", PeakRssMb(), "MB");
  out.Set("msg_units", static_cast<double>(units), "units");
  out.Set("ops_per_s", Median(rep_rate), "1/s");
  out.Set("op_p50_ms", Percentile(rep_ms, 0.5), "ms");
  out.Set("op_p95_ms", Percentile(rep_ms, 0.95), "ms");
  return out;
}

RunResult RunClusterTraced(const RunOptions& opt, const ClusterWorkload& w) {
  RunResult out;
  InitPerLayer(&out);
  Probes probes;
  const double rss0 = PeakRssMb();
  Inputs in = Generate(w.nodes, &probes);
  out.Set("data.rss_growth_mb", PeakRssMb() - rss0, "MB");
  const double topo_n = TimeTopology(w.nodes, &in.ds.topology,
                                     &probes, &out);
  SetTopologyMetrics(in.ds.topology, &out);

  // Untraced reference body first: it also sets the process's peak RSS, so
  // the memory growth of each layer is attributed here.
  ClusterRep plain = RunClusterRep(in, *in.ds.metric, w, opt.seed, nullptr);
  const Pipeline& p0 = plain.pipelines.front();
  out.Set("cluster.rss_growth_mb", p0.peak_after_elink_mb - p0.rss_before_mb,
          "MB");
  out.Set("index.rss_growth_mb",
          p0.peak_after_index_mb - p0.peak_after_elink_mb, "MB");

  auto counting = std::make_shared<CountingMetric>(in.ds.metric);
  ClusterRep traced = RunClusterRep(in, *counting, w, opt.seed, &probes);
  CheckClusterRep(in, *in.ds.metric, w, traced, &probes, &out);
  out.Check(traced.digest == plain.digest && traced.units == plain.units &&
                traced.sim_time == plain.sim_time,
            "traced clustering differs from the untraced run");
  out.Set("obs.trace_overhead_frac", traced.seconds / plain.seconds - 1.0,
          "ratio");

  double clusters = 0, switches = 0, repaired = 0, completion = 0;
  for (const Pipeline& p : traced.pipelines) {
    clusters += p.elink.clustering.num_clusters();
    switches += p.elink.total_switches;
    repaired += p.elink.repaired_fragments;
    completion += p.elink.completion_time;
  }
  out.Set("cluster.clusters", clusters, "count");
  out.Set("cluster.switches", switches, "count");
  out.Set("cluster.repaired_fragments", repaired, "count");
  out.Set("cluster.sim_completion_time", completion, "sim");

  // Scaling rows at N/4 and N/2 (first delta only), against the untraced
  // body at N.
  std::vector<double> ns, topo_s, elink_s, index_s;
  ClusterWorkload single = w;
  single.delta_fractions.resize(1);
  for (int div : {4, 2}) {
    const int n = w.nodes / div;
    Inputs small = Generate(n, nullptr);
    ns.push_back(n);
    topo_s.push_back(TimeTopology(n, nullptr, nullptr, &out));
    ClusterRep rep = RunClusterRep(small, *small.ds.metric, single, opt.seed,
                                   nullptr);
    elink_s.push_back(rep.pipelines[0].elink_s);
    index_s.push_back(rep.pipelines[0].mtree_s + rep.pipelines[0].backbone_s);
  }
  ns.push_back(w.nodes);
  topo_s.push_back(topo_n);
  elink_s.push_back(p0.elink_s);
  index_s.push_back(p0.mtree_s + p0.backbone_s);
  out.Set("sim.topology_slope", LogLogSlope(ns, topo_s), "slope");
  out.Set("cluster.elink_slope", LogLogSlope(ns, elink_s), "slope");
  out.Set("index.build_slope", LogLogSlope(ns, index_s), "slope");

  FinishPerLayer(probes, *counting, opt.seed, &out);
  return out;
}

// -- Feature streams: per-node RLS refits of the AR(1) coefficient ------------

/// One RLS estimator per node, warm-started from the training prefix; each
/// Advance folds in the node's next reading and yields its refitted feature.
class FeatureStreams {
 public:
  FeatureStreams(const SensorDataset& ds, uint64_t seed, Probes* probes)
      : ds_(&ds) {
    SpanLog::Scope span(SpansOf(probes), "timeseries.warm_start");
    const int n = ds.topology.num_nodes();
    mean_.resize(n);
    prev_.resize(n);
    next_.resize(n);
    Rng rng = Rng(seed).Fork(7);
    rls_.reserve(n);
    for (int i = 0; i < n; ++i) {
      const std::vector<double>& train = ds.train_streams[i];
      double s = 0.0;
      for (double v : train) s += v;
      mean_[i] = s / static_cast<double>(train.size());
      Matrix x(1, train.size() - 1);
      Vector y(train.size() - 1);
      for (size_t t = 1; t < train.size(); ++t) {
        x(0, t - 1) = train[t - 1] - mean_[i];
        y[t - 1] = train[t] - mean_[i];
      }
      Result<RlsEstimator> est = RlsEstimator::FromBatch(x, y);
      if (!est.ok()) Die("rls warm start", est.status());
      rls_.push_back(std::move(est).value());
      prev_[i] = train.back() - mean_[i];
      next_[i] = rng.UniformInt(ds.streams[i].size());
    }
  }

  /// Folds node i's next reading into its estimator; returns the feature.
  Feature Advance(int i) {
    const std::vector<double>& stream = ds_->streams[i];
    const double x = stream[next_[i] % stream.size()] - mean_[i];
    ++next_[i];
    rls_[i].Observe({prev_[i]}, x);
    prev_[i] = x;
    ++observations_;
    return {rls_[i].coefficients()[0]};
  }

  uint64_t observations() const { return observations_; }

 private:
  const SensorDataset* ds_;
  std::vector<RlsEstimator> rls_;
  std::vector<double> mean_, prev_;
  std::vector<size_t> next_;
  uint64_t observations_ = 0;
};

// -- query-mix ----------------------------------------------------------------

constexpr int kQueryNodes = 3200;
/// Distributed queries per round (half range, half safe-path).
constexpr int kQueriesPerRound = 32;
/// Rounds whose messages and simulated latencies are reported (fixed work,
/// so msg_units is exact for a seed).
constexpr int kExactRounds = 8;

struct QueryPredicate {
  bool is_range = true;
  int a = 0;  // Range initiator, or path source.
  int b = 0;  // Path destination.
  Feature feature;
  double scalar = 0.0;
};

/// Seeded predicates for one round.  Range radii are chosen so each query
/// matches 1-4% of the nodes: the radius is the distance from the center to
/// its k-th nearest feature.
std::vector<QueryPredicate> DrawPredicates(const std::vector<Feature>& features,
                                           const DistanceMetric& metric,
                                           double scale, uint64_t seed,
                                           int round, Probes* probes) {
  const int n = static_cast<int>(features.size());
  std::vector<QueryPredicate> preds(kQueriesPerRound);
  std::vector<double> kth_share(kQueriesPerRound);
  Rng rng = Rng(seed).Fork(1000 + static_cast<uint64_t>(round));
  for (int k = 0; k < kQueriesPerRound; ++k) {
    QueryPredicate& p = preds[k];
    p.is_range = k % 2 == 0;
    p.a = static_cast<int>(rng.UniformInt(n));
    p.b = static_cast<int>(rng.UniformInt(n));
    p.feature = features[rng.UniformInt(n)];
    kth_share[k] = rng.Uniform(0.01, 0.04);
    p.scalar = rng.Uniform(0.4, 1.1) * scale;  // Path gamma.
  }
  SpanLog::Scope span(SpansOf(probes), "metric.radius_calibration");
  const FeaturePool pool(features);
  std::vector<double> dist(n);
  for (int k = 0; k < kQueriesPerRound; ++k) {
    if (!preds[k].is_range) continue;
    metric.BatchDistance(preds[k].feature, pool, dist.data());
    const int kth = std::max(1, static_cast<int>(kth_share[k] * n));
    std::nth_element(dist.begin(), dist.begin() + kth, dist.end());
    preds[k].scalar = dist[kth];
  }
  return preds;
}

struct QueryAnswer {
  /// False when the protocol returned an error; counted as a failed query.
  bool ok = true;
  long long match_count = 0;
  bool complete = true;
  bool answer_received = true;
  double latency = 0.0;
  uint64_t units = 0;
  PathQueryResult path;
};

struct RoundResult {
  int updates = 0;
  std::vector<double> query_ms;
  std::vector<QueryPredicate> preds;
  std::vector<QueryAnswer> answers;
  std::vector<Feature> features;  // After the round's updates.
  double seconds = 0.0;
  double sim_latency = 0.0;
  uint64_t digest = kFnvBasis;
};

/// One query-mix round: every node's RLS refit and UpdateFeature (the
/// writes), then kQueriesPerRound distributed queries (the reads).  Untraced
/// runs go through the facade; traced runs call the index-layer protocols on
/// the facade's index with the telemetry attached.
RoundResult RunQueryRound(ClusteredSensorNetwork* net, FeatureStreams* streams,
                          const DistanceMetric& metric, double scale,
                          uint64_t seed, int round, Probes* probes,
                          RunResult* out) {
  RoundResult rr;
  const int n = net->num_nodes();
  std::vector<Feature> refit(n);
  double timed = 0.0;
  double t0 = CpuS();
  {
    SpanLog::Scope span(SpansOf(probes), "timeseries.refit");
    for (int i = 0; i < n; ++i) refit[i] = streams->Advance(i);
  }
  timed += ElapsedS(t0);
  t0 = CpuS();
  {
    SpanLog::Scope span(SpansOf(probes), "core.update_features");
    for (int i = 0; i < n; ++i) net->UpdateFeature(i, refit[i]);
  }
  timed += ElapsedS(t0);
  rr.updates = n;
  out->attempted += n;
  rr.features.resize(n);
  for (int i = 0; i < n; ++i) rr.features[i] = net->feature(i);
  rr.preds = DrawPredicates(rr.features, metric, scale, seed, round, probes);

  std::unique_ptr<DistributedRangeQuery> range;
  std::unique_ptr<DistributedPathQuery> path;
  if (probes != nullptr) {
    t0 = CpuS();
    {
      SpanLog::Scope span(&probes->spans, "index.rebuild");
      net->cluster_index();
    }
    timed += ElapsedS(t0);
    probes->tally["index.rebuilds"] += 1;
    SpanLog::Scope span(&probes->spans, "index.protocol_setup");
    DistributedRangeQuery::ProtocolOptions qopt;
    qopt.seed = seed;
    qopt.observer = &probes->telemetry;
    range = std::make_unique<DistributedRangeQuery>(
        net->topology(), net->clustering(), net->cluster_index(),
        net->backbone(), rr.features, net->metric(), qopt);
    PathProtocolOptions popt;
    popt.seed = seed;
    popt.observer = &probes->telemetry;
    path = std::make_unique<DistributedPathQuery>(
        net->topology(), net->clustering(), net->cluster_index(),
        net->backbone(), rr.features, net->metric(), popt);
  }
  for (const QueryPredicate& p : rr.preds) {
    QueryAnswer ans;
    if (probes != nullptr) probes->routes.NewNetwork();
    const double q0 = CpuS();
    if (p.is_range) {
      Result<DistributedQueryOutcome> r = [&] {
        if (range == nullptr) {
          return net->RangeQueryDistributed(p.a, p.feature, p.scalar);
        }
        SpanLog::Scope span(&probes->spans, "index.range_protocol");
        return range->Run(p.a, p.feature, p.scalar);
      }();
      rr.query_ms.push_back(1e3 * ElapsedS(q0));
      ans.ok = r.ok();
      if (r.ok()) {
        ans.match_count = r.value().match_count;
        ans.complete = r.value().complete;
        ans.answer_received = r.value().answer_received;
        ans.latency = r.value().latency;
        ans.units = r.value().stats.total_units();
      }
    } else {
      Result<PathQueryResult> r = [&] {
        if (path == nullptr) {
          return net->SafePathDistributed(p.a, p.b, p.feature, p.scalar);
        }
        SpanLog::Scope span(&probes->spans, "index.path_protocol");
        return path->Run(p.a, p.b, p.feature, p.scalar);
      }();
      rr.query_ms.push_back(1e3 * ElapsedS(q0));
      ans.ok = r.ok();
      if (r.ok()) {
        ans.path = std::move(r).value();
        ans.units = ans.path.stats.total_units();
      }
    }
    timed += rr.query_ms.back() * 1e-3;
    rr.sim_latency += ans.latency;
    rr.digest = Fnv(rr.digest, ans.ok ? 1 : 0);
    rr.digest = Fnv(rr.digest, static_cast<uint64_t>(ans.match_count));
    rr.digest = Fnv(rr.digest, ans.path.found ? 1 : 0);
    for (int v : ans.path.path) {
      rr.digest = Fnv(rr.digest, static_cast<uint64_t>(v));
    }
    rr.digest = Fnv(rr.digest, ans.units);
    rr.answers.push_back(std::move(ans));
  }
  rr.seconds = timed;
  return rr;
}

/// Checks every query of a round against the brute-force oracles.
void CheckQueryRound(const RoundResult& rr, const Topology& topo,
                     const DistanceMetric& metric, bool wrong_oracle,
                     Probes* probes, RunResult* out) {
  SpanLog::Scope span(SpansOf(probes), "check.queries");
  for (size_t k = 0; k < rr.preds.size(); ++k) {
    const QueryPredicate& p = rr.preds[k];
    const QueryAnswer& a = rr.answers[k];
    if (p.is_range) {
      long long expect = static_cast<long long>(
          check::RangeOracle(rr.features, metric, p.feature, p.scalar).size());
      if (wrong_oracle) ++expect;
      out->Check(a.ok && a.complete && a.answer_received &&
                     a.match_count == expect,
                 "range query " + std::to_string(k) + ": " +
                     std::to_string(a.match_count) + " matches, oracle " +
                     std::to_string(expect));
    } else {
      const Status s = check::CheckPathResult(a.path, topo.adjacency,
                                              rr.features, metric, p.feature,
                                              p.scalar, p.a, p.b, true);
      out->Check(a.ok && s.ok(), "path query " + std::to_string(k) + ": " +
                                     s.ToString());
    }
  }
}

ClusteredSensorNetwork::Options FacadeOptions(double scale, uint64_t seed) {
  ClusteredSensorNetwork::Options opts;
  opts.delta = 0.75 * scale;
  opts.slack = 0.075 * scale;
  opts.seed = seed;
  return opts;
}

std::unique_ptr<ClusteredSensorNetwork> BuildFacade(const Inputs& in,
                                                    uint64_t seed,
                                                    Probes* probes) {
  SpanLog::Scope span(SpansOf(probes), "core.build");
  auto net =
      ClusteredSensorNetwork::Build(in.ds, FacadeOptions(in.scale, seed));
  if (!net.ok()) Die("facade build", net.status());
  return std::move(net).value();
}

/// Fixed-work body shared by the traced run and its untraced reference:
/// kExactRounds rounds on a fresh facade.
struct QueryBody {
  uint64_t digest = kFnvBasis;
  uint64_t units = 0;
  double sim_latency = 0.0;
  double seconds = 0.0;
  std::vector<double> range_ms;
};

QueryBody RunQueryBody(const Inputs& in, uint64_t seed, bool wrong_oracle,
                       Probes* probes, RunResult* out) {
  QueryBody body;
  std::unique_ptr<ClusteredSensorNetwork> net = BuildFacade(in, seed, probes);
  FeatureStreams streams(in.ds, seed, probes);
  const uint64_t units0 = net->total_stats().total_units();
  const uint64_t maint0 = net->total_stats().units("maintenance");
  uint64_t query_units = 0;
  for (int r = 0; r < kExactRounds; ++r) {
    RoundResult rr = RunQueryRound(net.get(), &streams, *in.ds.metric,
                                   in.scale, seed, r, probes, out);
    CheckQueryRound(rr, in.ds.topology, *in.ds.metric, wrong_oracle, probes,
                    out);
    body.digest = Fnv(body.digest, rr.digest);
    body.sim_latency += rr.sim_latency;
    body.seconds += rr.seconds;
    for (size_t k = 0; k < rr.preds.size(); ++k) {
      query_units += rr.answers[k].units;
      if (rr.preds[k].is_range) body.range_ms.push_back(rr.query_ms[k]);
      if (probes != nullptr && rr.preds[k].is_range) {
        probes->tally["index.range_matches"] += rr.answers[k].match_count;
      }
    }
  }
  net->cluster_index();  // Folds pending maintenance units into the ledger.
  body.units = net->total_stats().total_units() - units0;
  if (probes != nullptr) {
    // Traced queries bypass the facade, so their units are added here.
    body.units += query_units;
    probes->tally["index.query_units"] += query_units;
    probes->tally["cluster.maintenance_units"] +=
        net->total_stats().units("maintenance") - maint0;
    probes->tally["timeseries.observations"] += streams.observations();
  }
  return body;
}

RunResult RunQueryUntraced(const RunOptions& opt, int nodes) {
  RunResult out;
  HostSpeed& speed = HostSpeed::Start();
  std::vector<double> setup_s, build_s;
  Inputs in;
  std::unique_ptr<ClusteredSensorNetwork> net;
  std::unique_ptr<FeatureStreams> streams;
  for (int r = 0; r < kShortSetupReps; ++r) {
    net.reset();
    streams.reset();
    in = Inputs();
    const double t0 = CpuS();
    in = Generate(nodes, nullptr);
    const double t1 = CpuS();
    net = BuildFacade(in, opt.seed, nullptr);
    build_s.push_back(ElapsedS(t1));
    streams = std::make_unique<FeatureStreams>(in.ds, opt.seed, nullptr);
    setup_s.push_back(ElapsedS(t0));
  }
  const uint64_t units0 = net->total_stats().total_units();
  uint64_t units = 0;
  const double start = NowS();
  std::vector<double> query_ms, round_rate;
  uint64_t ops = 0;
  for (int round = 0; round < kExactRounds || NowS() - start < opt.seconds;
       ++round) {
    RoundResult rr = RunQueryRound(net.get(), streams.get(), *in.ds.metric,
                                   in.scale, opt.seed, round, nullptr, &out);
    const size_t round_ops = rr.updates + rr.query_ms.size();
    ops += round_ops;
    round_rate.push_back(round_ops / rr.seconds);
    query_ms.insert(query_ms.end(), rr.query_ms.begin(), rr.query_ms.end());
    CheckQueryRound(rr, in.ds.topology, *in.ds.metric, opt.wrong_oracle,
                    nullptr, &out);
    if (round + 1 == kExactRounds) {
      net->cluster_index();
      units = net->total_stats().total_units() - units0;
    }
  }
  speed.Stop();
  ReportHostSpeed(speed);
  std::printf("query-mix: %zu queries, %llu updates\n", query_ms.size(),
              static_cast<unsigned long long>(ops - query_ms.size()));
  out.Set("setup_s", Median(setup_s), "s");
  out.Set("cluster_s", Median(build_s), "s");
  out.Set("peak_rss_mb", PeakRssMb(), "MB");
  out.Set("msg_units", static_cast<double>(units), "units");
  out.Set("ops_per_s", Median(round_rate), "1/s");
  out.Set("op_p50_ms", Percentile(query_ms, 0.5), "ms");
  out.Set("op_p95_ms", Percentile(query_ms, 0.95), "ms");
  return out;
}

RunResult RunQueryTraced(const RunOptions& opt, int nodes) {
  RunResult out;
  InitPerLayer(&out);
  Probes probes;
  const double rss0 = PeakRssMb();
  Inputs in = Generate(nodes, &probes);
  out.Set("data.rss_growth_mb", PeakRssMb() - rss0, "MB");
  TimeTopology(nodes, &in.ds.topology, &probes, &out);
  SetTopologyMetrics(in.ds.topology, &out);

  const double rss1 = PeakRssMb();
  QueryBody plain = RunQueryBody(in, opt.seed, opt.wrong_oracle, nullptr, &out);
  out.Set("cluster.rss_growth_mb", PeakRssMb() - rss1, "MB");

  Inputs counted = in;
  auto counting = std::make_shared<CountingMetric>(in.ds.metric);
  counted.ds.metric = counting;
  QueryBody traced =
      RunQueryBody(counted, opt.seed, opt.wrong_oracle, &probes, &out);
  out.Check(traced.digest == plain.digest && traced.units == plain.units &&
                traced.sim_latency == plain.sim_latency,
            "traced query-mix differs from the untraced run");
  out.Set("obs.trace_overhead_frac", traced.seconds / plain.seconds - 1.0,
          "ratio");
  out.Set("index.query_sim_latency", traced.sim_latency, "sim");
  for (const auto& [name, unit] :
       std::vector<std::pair<std::string, std::string>>{
           {"index.rebuilds", "count"},
           {"index.query_units", "units"},
           {"index.range_matches", "count"},
           {"cluster.maintenance_units", "units"},
           {"timeseries.observations", "count"}}) {
    out.Set(name, probes.tally[name], unit);
  }

  // Scaling rows of the query step: median range-query host time at N/4,
  // N/2 (fresh facades, no updates) and N (the untraced body).
  std::vector<double> ns, range_ms;
  for (int div : {4, 2}) {
    const int n = nodes / div;
    Inputs small = Generate(n, nullptr);
    auto net = BuildFacade(small, opt.seed, nullptr);
    std::vector<Feature> features(n);
    for (int i = 0; i < n; ++i) features[i] = net->feature(i);
    std::vector<double> ms;
    for (const QueryPredicate& p :
         DrawPredicates(features, *small.ds.metric, small.scale, opt.seed, 0,
                        nullptr)) {
      if (!p.is_range) continue;
      const double q0 = CpuS();
      if (!net->RangeQueryDistributed(p.a, p.feature, p.scalar).ok()) {
        out.Check(false, "scaling-row range query failed");
      }
      ms.push_back(1e3 * (CpuS() - q0));
    }
    ns.push_back(n);
    range_ms.push_back(Median(ms));
  }
  ns.push_back(nodes);
  range_ms.push_back(Median(plain.range_ms));
  out.Set("index.range_protocol_slope", LogLogSlope(ns, range_ms), "slope");

  FinishPerLayer(probes, *counting, opt.seed, &out);
  return out;
}

// -- serve-mixed --------------------------------------------------------------

constexpr int kServeNodes = 3200;
/// Reads between two writer publishes: publishing is paced by reads, not by
/// time, so the publish count per read is fixed.
constexpr int kReadsPerPublish = 4096;
/// Updates whose maintenance messages are reported (fixed work).
constexpr int kExactUpdates = 32;
/// Closed-loop clients, served round-robin from the writer's thread.
constexpr int kReaders = 2;
/// Views whose reads are audited after the run: every kAuditStride-th of
/// the first kExactUpdates publishes, which every run reaches.
constexpr int kAuditStride = 4;
/// The traced run's replay: updates, and reads after each publish.
constexpr int kReplayUpdates = 16;
constexpr int kReplayReadsPerPublish = 1024;
/// Read latency samples kept; preallocated so that peak RSS does not depend
/// on how many reads a run completes.
constexpr size_t kMaxReadSamples = 1 << 21;

/// Ops in one pass of a client's stream.
constexpr int kOpsPerPass = 16384;
static_assert(kReadsPerPublish / kReaders <= kOpsPerPass &&
                  kReplayReadsPerPublish / kReaders <= kOpsPerPass,
              "a read window may cross at most one pass boundary");

/// The library's default mix (`serve::WorkloadConfig`): 70% range queries,
/// a 64-predicate pool with Zipf skew 1.1, and 10% one-off predicates.
serve::WorkloadConfig ServeMix() {
  serve::WorkloadConfig cfg;
  cfg.num_clients = kReaders;
  cfg.ops_per_client = kOpsPerPass;
  return cfg;
}

/// Generator client id of client `reader`'s pass `pass`.  Every pass draws a
/// fresh stream over the same pool, so one-off predicates stay one-off
/// however many passes a run makes.
int PassClient(int reader, uint32_t pass) {
  return reader + kReaders * static_cast<int>(pass);
}

/// The clients' op streams, served round-robin: read i is client
/// i % kReaders's op i / kReaders.  Prepare generates the passes the next
/// reads need; it runs between read windows, so stream generation stays out
/// of the timed reads.  Only a client's current and next pass are held, so
/// memory does not grow with the run.
class ReadStreams {
 public:
  struct Op {
    const serve::WorkloadOp* op;
    int reader;
    uint32_t pass;
    uint32_t index;
  };

  explicit ReadStreams(const serve::WorkloadGenerator& gen)
      : gen_(&gen), clients_(kReaders) {
    for (int c = 0; c < kReaders; ++c) {
      clients_[c].current = gen.ClientOps(PassClient(c, 0));
    }
  }

  /// Generates every pass that the next `reads` reads need.
  void Prepare(uint64_t reads) {
    const uint64_t last = (served_ + reads - 1) / kReaders;
    const uint32_t need = static_cast<uint32_t>(last / kOpsPerPass);
    for (int c = 0; c < kReaders; ++c) {
      Client& cl = clients_[c];
      if (need > cl.pass && cl.ready != cl.pass + 1) {
        cl.next = gen_->ClientOps(PassClient(c, cl.pass + 1));
        cl.ready = cl.pass + 1;
      }
    }
  }

  /// The next read's op; an earlier Prepare must have covered it.
  Op Next() {
    const int c = static_cast<int>(served_ % kReaders);
    const uint64_t j = served_ / kReaders;
    ++served_;
    Client& cl = clients_[c];
    const uint32_t pass = static_cast<uint32_t>(j / kOpsPerPass);
    if (pass != cl.pass) {
      cl.current.swap(cl.next);
      cl.pass = pass;
    }
    const uint32_t index = static_cast<uint32_t>(j % kOpsPerPass);
    return {&cl.current[index], c, pass, index};
  }

  uint64_t served() const { return served_; }

 private:
  struct Client {
    std::vector<serve::WorkloadOp> current, next;
    uint32_t pass = 0;
    /// The pass held in `next`, or 0 when none is.
    uint32_t ready = 0;
  };
  const serve::WorkloadGenerator* gen_;
  std::vector<Client> clients_;
  uint64_t served_ = 0;
};

/// Client populations, each drawn with the library's default mix from a
/// seed of its own; read windows serve them in turn.  A population's
/// 64-predicate pool decides which few predicates dominate its Zipf mix, and
/// with them the cost of a hit, so with one population the figures would be
/// a draw of the seed.  Several per run average that out.
constexpr int kPopulations = 8;

class ServeClients {
 public:
  ServeClients(const SensorDataset& ds, uint64_t seed) {
    for (int k = 0; k < kPopulations; ++k) {
      gens_.push_back(std::make_unique<serve::WorkloadGenerator>(
          ds.features, ds.topology.num_nodes(), ServeMix(),
          Rng(seed).Fork(100 + static_cast<uint64_t>(k)).Next()));
      streams_.push_back(std::make_unique<ReadStreams>(*gens_.back()));
    }
  }

  const serve::WorkloadGenerator& gen(int population) const {
    return *gens_[population];
  }
  ReadStreams& streams(int population) { return *streams_[population]; }

 private:
  std::vector<std::unique_ptr<serve::WorkloadGenerator>> gens_;
  std::vector<std::unique_ptr<ReadStreams>> streams_;
};

/// Index of a client's read log: population-major.
int LogIndex(int population, int reader) {
  return population * kReaders + reader;
}

/// The serving stack over one clustering: message-passing maintenance plus
/// the paced publisher.
struct ServeStack {
  std::unique_ptr<DistributedMaintenance> maintenance;
  std::unique_ptr<serve::MaintenanceServeDriver> driver;
  std::unique_ptr<FeatureStreams> streams;
  int num_nodes;
  int next_node = 0;

  ServeStack(const Inputs& in, const Clustering& clustering, double delta,
             double slack, uint64_t seed,
             std::shared_ptr<const DistanceMetric> metric, Probes* probes)
      : num_nodes(in.ds.topology.num_nodes()) {
    SpanLog::Scope span(SpansOf(probes), "serve.stack_setup");
    MaintenanceConfig mcfg;
    mcfg.delta = delta;
    mcfg.slack = slack;
    maintenance = std::make_unique<DistributedMaintenance>(
        in.ds.topology, clustering, in.ds.features, metric, mcfg, true, seed);
    serve::ServeFrontend::Options fopts;
    fopts.delta = delta;
    driver = std::make_unique<serve::MaintenanceServeDriver>(
        maintenance.get(), metric, fopts);
    streams = std::make_unique<FeatureStreams>(in.ds, seed, probes);
    next_node = static_cast<int>(Rng(seed).Fork(8).UniformInt(num_nodes));
  }

  /// The writer's next update: round-robin over nodes, RLS refit.
  std::pair<int, Feature> NextUpdate() {
    const int node = next_node;
    next_node = (next_node + 1) % num_nodes;
    return {node, streams->Advance(node)};
  }
};

struct ServeSetup {
  Inputs in;
  Pipeline pipeline;
  double delta = 0.0;
  double slack = 0.0;
};

constexpr ClusterParams kServeClustering = {ElinkMode::kImplicit, true, 0.1};

ServeSetup BuildServeInputs(int nodes, uint64_t seed, Probes* probes) {
  ServeSetup s;
  s.in = Generate(nodes, probes);
  s.delta = 0.75 * s.in.scale;
  s.slack = kServeClustering.slack_fraction * s.delta;
  s.pipeline = RunPipeline(s.in.ds, *s.in.ds.metric, s.delta,
                           kServeClustering, seed, probes);
  return s;
}

uint64_t DigestAnswer(bool is_range, const serve::RangeAnswer& range,
                      const serve::PathAnswer& path) {
  return is_range ? serve::DigestRange(kFnvBasis, range)
                  : serve::DigestPath(kFnvBasis, path);
}

struct ReadRecord {
  uint32_t pass = 0;
  uint32_t op = 0;
  bool hit = false;
  uint64_t version = 0;
  uint64_t digest = 0;
  double ns = 0.0;
};

/// Serves one op, timing only the frontend call.  With a sampler running,
/// the time of any calibration kernel that interrupted the call is taken
/// out again.
ReadRecord ServeOp(serve::ServeFrontend& frontend,
                   const serve::WorkloadOp& op, uint32_t pass, uint32_t index,
                   const HostSpeed* speed = nullptr) {
  ReadRecord rec;
  rec.pass = pass;
  rec.op = index;
  const uint64_t s0 = speed != nullptr ? speed->samples() : 0;
  const auto t0 = Clock::now();
  if (op.is_range) {
    serve::ServedRange s = frontend.Range(op.feature, op.scalar);
    rec.ns = std::chrono::duration<double, std::nano>(Clock::now() - t0)
                 .count();
    rec.hit = s.from_cache;
    rec.version = s.view_version;
    rec.digest = serve::DigestRange(kFnvBasis, s.answer);
  } else {
    serve::ServedPath s =
        frontend.SafePath(op.source, op.destination, op.feature, op.scalar);
    rec.ns = std::chrono::duration<double, std::nano>(Clock::now() - t0)
                 .count();
    rec.hit = s.from_cache;
    rec.version = s.view_version;
    rec.digest = serve::DigestPath(kFnvBasis, s.answer);
  }
  if (speed != nullptr && speed->samples() != s0) {
    rec.ns = std::max(
        0.0, rec.ns - 1e6 * speed->KernelMsBetween(s0, speed->samples()));
  }
  return rec;
}

/// A fixed set of audited views keeps the audit's memory and time, and so
/// the peak RSS, independent of the run's read rate.
bool AuditedVersion(uint64_t version) {
  return version % kAuditStride == 0 && version <= kExactUpdates;
}

using ViewLog = std::map<uint64_t, std::shared_ptr<const serve::ReadView>>;

/// Recomputes served answers on the retained views and compares digests.
/// Each client's log (LogIndex) is in pass order; its passes are regenerated
/// from its population's generator.
void AuditReads(const std::vector<std::vector<ReadRecord>>& logs,
                const ServeClients& clients, const ViewLog& views,
                Probes* probes, RunResult* out) {
  SpanLog::Scope span(SpansOf(probes), "check.serve_audit");
  // Answers are memoized per (view version, predicate): the Zipf mix
  // repeats a small pool of predicates.
  std::map<std::pair<uint64_t, std::string>, uint64_t> memo;
  uint64_t audited = 0, bad = 0;
  for (size_t c = 0; c < logs.size(); ++c) {
    std::vector<serve::WorkloadOp> ops;
    uint32_t ops_pass = 0;
    for (const ReadRecord& r : logs[c]) {
      const auto view = views.find(r.version);
      if (view == views.end()) continue;
      if (ops.empty() || r.pass != ops_pass) {
        const int client = static_cast<int>(c);
        ops = clients.gen(client / kReaders)
                  .ClientOps(PassClient(client % kReaders, r.pass));
        ops_pass = r.pass;
      }
      const serve::WorkloadOp& op = ops[r.op];
      const auto key = std::make_pair(
          r.version,
          op.is_range ? serve::CanonicalRangeKey(op.feature, op.scalar)
                      : serve::CanonicalPathKey(op.source, op.destination,
                                                op.feature, op.scalar));
      auto it = memo.find(key);
      if (it == memo.end()) {
        serve::RangeAnswer range;
        serve::PathAnswer path;
        if (op.is_range) {
          range = view->second->Range(op.feature, op.scalar);
        } else {
          path = view->second->SafePath(op.source, op.destination, op.feature,
                                        op.scalar);
        }
        it = memo.emplace(key, DigestAnswer(op.is_range, range, path)).first;
      }
      ++audited;
      if (it->second != r.digest) ++bad;
    }
  }
  out->Check(bad == 0, std::to_string(bad) + " of " + std::to_string(audited) +
                           " audited served answers differ from their view");
  out->Check(audited > 0, "no served answer could be audited");
}

RunResult RunServeUntraced(const RunOptions& opt, int nodes) {
  RunResult out;
  HostSpeed& speed = HostSpeed::Start();
  std::vector<double> setup_s, cluster_s;
  std::unique_ptr<ServeSetup> setup;
  std::unique_ptr<ServeStack> stack;
  for (int r = 0; r < kShortSetupReps; ++r) {
    stack.reset();
    setup.reset();
    const double t0 = CpuS();
    setup = std::make_unique<ServeSetup>(
        BuildServeInputs(nodes, opt.seed, nullptr));
    stack = std::make_unique<ServeStack>(setup->in,
                                         setup->pipeline.elink.clustering,
                                         setup->delta, setup->slack, opt.seed,
                                         setup->in.ds.metric, nullptr);
    setup_s.push_back(ElapsedS(t0));
    cluster_s.push_back(setup->pipeline.total_s);
  }
  CheckPipeline(setup->in.ds, *setup->in.ds.metric, setup->delta,
                setup->pipeline, nullptr, &out);

  ServeClients clients(setup->in.ds, opt.seed);
  serve::ServeFrontend& frontend = stack->driver->frontend();
  ViewLog views;
  std::vector<std::vector<ReadRecord>> logs(kPopulations * kReaders);
  std::vector<double> read_ns(kMaxReadSamples);

  // Timed phase: windows of kReadsPerPublish reads, each from the next
  // population and followed by one writer update and publish, until the
  // budget is spent.  Each read's latency is scaled by the host's speed over
  // its window.
  std::vector<double> window_rate, window_mean_ms;
  uint64_t units = 0, updates = 0, reads = 0;
  const uint64_t maint0 = stack->maintenance->stats().total_units();
  const double start = NowS();
  for (uint64_t w = 0;; ++w) {
    const int population = static_cast<int>(w % kPopulations);
    ReadStreams& streams = clients.streams(population);
    streams.Prepare(kReadsPerPublish);
    const uint64_t first_read = reads;
    const double w0 = CpuS();
    for (int k = 0; k < kReadsPerPublish; ++k, ++reads) {
      const ReadStreams::Op op = streams.Next();
      const ReadRecord rec =
          ServeOp(frontend, *op.op, op.pass, op.index, &speed);
      if (reads < kMaxReadSamples) read_ns[reads] = rec.ns;
      if (AuditedVersion(rec.version)) {
        logs[LogIndex(population, op.reader)].push_back(rec);
      }
    }
    const CpuSpan window = SpanFrom(w0);
    const double factor = speed.Factor(window);
    for (uint64_t i = first_read; i < reads && i < kMaxReadSamples; ++i) {
      read_ns[i] *= factor;
    }
    const double window_s = speed.Raw(window) * factor;
    window_rate.push_back(kReadsPerPublish / window_s);
    window_mean_ms.push_back(1e3 * window_s / kReadsPerPublish);
    if (NowS() - start >= opt.seconds && updates >= kExactUpdates) break;
    auto [node, feature] = stack->NextUpdate();
    stack->driver->ApplyUpdateAndPublish(node, feature);
    if (++updates == kExactUpdates) {
      units = stack->maintenance->stats().total_units() - maint0;
    }
    std::shared_ptr<const serve::ReadView> view = frontend.View();
    if (AuditedVersion(view->version())) views[view->version()] = view;
  }

  speed.Stop();
  ReportHostSpeed(speed);
  std::vector<double> read_ms;
  read_ms.reserve(std::min<uint64_t>(reads, kMaxReadSamples));
  for (uint64_t i = 0; i < reads && i < kMaxReadSamples; ++i) {
    read_ms.push_back(read_ns[i] * 1e-6);
  }
  out.attempted += reads + updates;
  AuditReads(logs, clients, views, nullptr, &out);
  const Status inv = stack->maintenance->ValidateRootDistanceInvariant(
      setup->delta + 2 * setup->slack);
  out.Check(inv.ok(), "maintenance invariant: " + inv.ToString());
  const serve::ServeCounters counters = frontend.Counters();
  std::printf("serve-mixed: %llu reads, %llu updates, %llu publishes, hit "
              "rate %.3f, median read %.3f us\n",
              static_cast<unsigned long long>(reads),
              static_cast<unsigned long long>(updates),
              static_cast<unsigned long long>(counters.publishes),
              static_cast<double>(counters.cache.hits) /
                  std::max<uint64_t>(1, counters.cache.hits +
                                            counters.cache.misses),
              1e3 * Percentile(read_ms, 0.5));

  out.Set("setup_s", Median(setup_s), "s");
  out.Set("cluster_s", Median(cluster_s), "s");
  out.Set("peak_rss_mb", PeakRssMb(), "MB");
  out.Set("msg_units",
          static_cast<double>(setup->pipeline.stats.total_units() + units),
          "units");
  out.Set("ops_per_s", Median(window_rate), "1/s");
  out.Set("op_p50_ms", Median(window_mean_ms), "ms");
  out.Set("op_p95_ms", Percentile(read_ms, 0.95), "ms");
  return out;
}

/// The traced run's fixed-work replay of the serve mix: kReplayUpdates
/// updates, each followed by kReplayReadsPerPublish reads.
struct ServeBody {
  uint64_t digest = kFnvBasis;
  uint64_t units = 0;
  double seconds = 0.0;
  std::vector<double> range_hit_us, range_miss_us, path_hit_us, path_miss_us;
  std::vector<double> update_us, apply_us;
  serve::ServeCounters counters;
};

ServeBody RunServeBody(const ServeSetup& s, uint64_t seed,
                       std::shared_ptr<const DistanceMetric> metric,
                       Probes* probes, RunResult* out) {
  ServeBody body;
  ServeStack stack(s.in, s.pipeline.elink.clustering, s.delta, s.slack, seed,
                   metric, probes);
  if (probes != nullptr) {
    probes->routes.NewNetwork();
    stack.maintenance->set_observer(&probes->telemetry);
  }
  ServeClients clients(s.in.ds, seed);
  std::vector<std::vector<ReadRecord>> logs(kPopulations * kReaders);
  uint64_t reads = 0;
  ViewLog views;
  serve::ServeFrontend& frontend = stack.driver->frontend();
  const uint64_t maint0 = stack.maintenance->stats().total_units();
  for (int u = 0; u < kReplayUpdates; ++u) {
    std::pair<int, Feature> update;
    {
      SpanLog::Scope span(SpansOf(probes), "timeseries.refit");
      update = stack.NextUpdate();
    }
    const auto& [node, feature] = update;
    const double t0 = CpuS();
    {
      SpanLog::Scope span(SpansOf(probes), "cluster.maintenance_apply");
      stack.maintenance->ApplyUpdate(node, feature);
    }
    const double t1 = CpuS();
    {
      SpanLog::Scope span(SpansOf(probes), "serve.publish");
      stack.driver->Publish();
    }
    const double t2 = CpuS();
    body.apply_us.push_back(1e6 * (t1 - t0));
    body.update_us.push_back(1e6 * (t2 - t0));
    body.seconds += t2 - t0;
    if (AuditedVersion(frontend.View()->version())) {
      views[frontend.View()->version()] = frontend.View();
    }
    const int population = u % kPopulations;
    ReadStreams& streams = clients.streams(population);
    streams.Prepare(kReplayReadsPerPublish);
    SpanLog::Scope span(SpansOf(probes), "serve.reads");
    for (int k = 0; k < kReplayReadsPerPublish; ++k, ++reads) {
      const ReadStreams::Op op = streams.Next();
      const ReadRecord rec = ServeOp(frontend, *op.op, op.pass, op.index);
      std::vector<double>& split =
          op.op->is_range
              ? (rec.hit ? body.range_hit_us : body.range_miss_us)
              : (rec.hit ? body.path_hit_us : body.path_miss_us);
      split.push_back(rec.ns * 1e-3);
      body.seconds += rec.ns * 1e-9;
      body.digest = Fnv(body.digest, rec.digest);
      body.digest = Fnv(body.digest, rec.hit ? 1 : 0);
      logs[LogIndex(population, op.reader)].push_back(rec);
    }
  }
  out->attempted += kReplayUpdates + reads;
  body.units = stack.maintenance->stats().total_units() - maint0;
  body.digest = Fnv(body.digest, body.units);
  body.counters = frontend.Counters();
  AuditReads(logs, clients, views, probes, out);
  SpanLog::Scope span(SpansOf(probes), "check.maintenance");
  const Status inv =
      stack.maintenance->ValidateRootDistanceInvariant(s.delta + 2 * s.slack);
  out->Check(inv.ok(), "maintenance invariant: " + inv.ToString());
  if (probes != nullptr) stack.maintenance->set_observer(nullptr);
  return body;
}

RunResult RunServeTraced(const RunOptions& opt, int nodes) {
  RunResult out;
  InitPerLayer(&out);
  Probes probes;
  const double rss0 = PeakRssMb();
  ServeSetup setup = BuildServeInputs(nodes, opt.seed, &probes);
  out.Set("data.rss_growth_mb", setup.pipeline.rss_before_mb - rss0, "MB");
  out.Set("cluster.rss_growth_mb",
          setup.pipeline.peak_after_elink_mb - setup.pipeline.rss_before_mb,
          "MB");
  out.Set("index.rss_growth_mb",
          setup.pipeline.peak_after_index_mb -
              setup.pipeline.peak_after_elink_mb,
          "MB");
  TimeTopology(nodes, &setup.in.ds.topology, &probes, &out);
  SetTopologyMetrics(setup.in.ds.topology, &out);
  CheckPipeline(setup.in.ds, *setup.in.ds.metric, setup.delta, setup.pipeline,
                &probes, &out);
  const Pipeline& p = setup.pipeline;
  out.Set("cluster.clusters", p.elink.clustering.num_clusters(), "count");
  out.Set("cluster.switches", p.elink.total_switches, "count");
  out.Set("cluster.repaired_fragments", p.elink.repaired_fragments, "count");
  out.Set("cluster.sim_completion_time", p.elink.completion_time, "sim");

  ServeBody plain = RunServeBody(setup, opt.seed, setup.in.ds.metric, nullptr,
                                 &out);
  auto counting = std::make_shared<CountingMetric>(setup.in.ds.metric);
  ServeBody traced = RunServeBody(setup, opt.seed, counting, &probes, &out);
  out.Check(traced.digest == plain.digest && traced.units == plain.units,
            "traced serve replay differs from the untraced run");
  out.Set("obs.trace_overhead_frac", traced.seconds / plain.seconds - 1.0,
          "ratio");

  out.Set("serve.range_hit_us", Median(traced.range_hit_us), "us");
  out.Set("serve.range_miss_us", Median(traced.range_miss_us), "us");
  out.Set("serve.path_hit_us", Median(traced.path_hit_us), "us");
  out.Set("serve.path_miss_us", Median(traced.path_miss_us), "us");
  const serve::ServeCounters& c = traced.counters;
  const uint64_t lookups = c.cache.hits + c.cache.misses;
  out.Set("serve.hit_rate",
          lookups > 0 ? static_cast<double>(c.cache.hits) / lookups : 0.0,
          "ratio");
  out.Set("serve.lookups", static_cast<double>(lookups), "count");
  out.Set("serve.publishes", static_cast<double>(c.publishes), "count");
  out.Set("serve.views_built", static_cast<double>(c.views_built), "count");
  out.Set("serve.epoch_bumps", static_cast<double>(c.epoch_bumps), "count");
  out.Set("serve.stale_evictions",
          static_cast<double>(c.cache.stale_evictions), "count");
  out.Set("serve.update_p50_us", Percentile(traced.update_us, 0.5), "us");
  out.Set("serve.update_p99_us", Percentile(traced.update_us, 0.99), "us");
  out.Set("cluster.maintenance_apply_us", Median(traced.apply_us), "us");
  out.Set("cluster.maintenance_units", static_cast<double>(traced.units),
          "units");
  out.Set("timeseries.observations", static_cast<double>(kReplayUpdates),
          "count");

  FinishPerLayer(probes, *counting, opt.seed, &out);
  return out;
}

}  // namespace

RunResult RunWorkload(const RunOptions& opt) {
  const auto nodes = [&](int dflt) { return opt.nodes > 0 ? opt.nodes : dflt; };
  if (opt.workload == "cluster-explicit" ||
      opt.workload == "cluster-implicit") {
    ClusterWorkload w;
    if (opt.workload == "cluster-explicit") {
      w = {nodes(6400), {ElinkMode::kExplicit, false, 0.0}, {0.75}};
    } else {
      w = {nodes(12800), {ElinkMode::kImplicit, true, 0.0}, {0.75, 1.0, 1.25}};
    }
    return opt.trace ? RunClusterTraced(opt, w) : RunClusterUntraced(opt, w);
  }
  if (opt.workload == "query-mix") {
    return opt.trace ? RunQueryTraced(opt, nodes(kQueryNodes))
                     : RunQueryUntraced(opt, nodes(kQueryNodes));
  }
  return opt.trace ? RunServeTraced(opt, nodes(kServeNodes))
                   : RunServeUntraced(opt, nodes(kServeNodes));
}

}  // namespace perfbench
