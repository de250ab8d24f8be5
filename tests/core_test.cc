// Tests for the ClusteredSensorNetwork facade: end-to-end build, query
// exactness, maintenance behavior, and ledger consistency.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/clustered_network.h"
#include "data/synthetic.h"
#include "data/terrain.h"

namespace elink {
namespace {

SensorDataset TerrainDs() {
  TerrainConfig cfg;
  cfg.num_nodes = 200;
  cfg.radio_range_fraction = 0.1;
  cfg.seed = 3;
  return std::move(MakeTerrainDataset(cfg)).value();
}

ClusteredSensorNetwork::Options DefaultOptions(const SensorDataset& ds,
                                               double frac = 0.25) {
  ClusteredSensorNetwork::Options opts;
  opts.delta = frac * FeatureDiameter(ds);
  opts.slack = 0.1 * opts.delta;
  opts.seed = 5;
  return opts;
}

TEST(ClusteredNetworkTest, BuildProducesValidClustering) {
  const SensorDataset ds = TerrainDs();
  auto opts = DefaultOptions(ds);
  auto net = ClusteredSensorNetwork::Build(ds, opts);
  ASSERT_TRUE(net.ok()) << net.status().ToString();
  EXPECT_EQ(net.value()->num_nodes(), 200);
  EXPECT_GE(net.value()->num_clusters(), 1);
  EXPECT_TRUE(ValidateDeltaClustering(net.value()->clustering(),
                                      ds.topology.adjacency, ds.features,
                                      *ds.metric, opts.delta)
                  .ok());
  EXPECT_GT(net.value()->clustering_cost_units(), 0u);
}

TEST(ClusteredNetworkTest, RangeQueriesMatchScan) {
  const SensorDataset ds = TerrainDs();
  auto net_r = ClusteredSensorNetwork::Build(ds, DefaultOptions(ds));
  ASSERT_TRUE(net_r.ok());
  auto& net = *net_r.value();
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const Feature q = {rng.Uniform(175.0, 1996.0)};
    const double r = rng.Uniform(0.2, 1.0) * net.delta();
    const RangeQueryResult res =
        net.RangeQuery(static_cast<int>(rng.UniformInt(200)), q, r);
    std::vector<int> expected;
    for (int i = 0; i < 200; ++i) {
      if (ds.metric->Distance(ds.features[i], q) <= r + 1e-12) {
        expected.push_back(i);
      }
    }
    EXPECT_EQ(res.matches, expected);
  }
}

TEST(ClusteredNetworkTest, UpdatesKeepInvariantAndQueriesFollow) {
  const SensorDataset ds = TerrainDs();
  auto net_r = ClusteredSensorNetwork::Build(ds, DefaultOptions(ds));
  ASSERT_TRUE(net_r.ok());
  auto& net = *net_r.value();
  Rng rng(11);
  std::vector<Feature> current = ds.features;
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 200; ++i) {
      current[i][0] += rng.Normal(0.0, 3.0);
      net.UpdateFeature(i, current[i]);
    }
  }
  EXPECT_TRUE(net.ValidateInvariant().ok());
  // Queries now answer against the *updated* features.
  const Feature q = current[42];
  const RangeQueryResult res = net.RangeQuery(0, q, 0.5 * net.delta());
  std::vector<int> expected;
  for (int i = 0; i < 200; ++i) {
    if (ds.metric->Distance(current[i], q) <= 0.5 * net.delta() + 1e-12) {
      expected.push_back(i);
    }
  }
  EXPECT_EQ(res.matches, expected);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(net.feature(i), current[i]);
  }
}

TEST(ClusteredNetworkTest, SafePathAgreesWithSafety) {
  const SensorDataset ds = TerrainDs();
  auto net_r = ClusteredSensorNetwork::Build(ds, DefaultOptions(ds));
  ASSERT_TRUE(net_r.ok());
  auto& net = *net_r.value();
  Rng rng(13);
  for (int trial = 0; trial < 10; ++trial) {
    const int src = static_cast<int>(rng.UniformInt(200));
    const int dst = static_cast<int>(rng.UniformInt(200));
    const Feature danger = {rng.Uniform(175.0, 1996.0)};
    const double gamma = rng.Uniform(0.05, 0.3) * FeatureDiameter(ds);
    const PathQueryResult res = net.SafePath(src, dst, danger, gamma);
    if (res.found) {
      EXPECT_EQ(res.path.front(), src);
      EXPECT_EQ(res.path.back(), dst);
      for (int node : res.path) {
        EXPECT_GE(ds.metric->Distance(ds.features[node], danger),
                  gamma - 1e-9);
      }
    }
  }
}

TEST(ClusteredNetworkTest, DistributedQueriesMatchEngines) {
  const SensorDataset ds = TerrainDs();
  auto net_r = ClusteredSensorNetwork::Build(ds, DefaultOptions(ds));
  ASSERT_TRUE(net_r.ok());
  auto& net = *net_r.value();
  Rng rng(19);
  for (int trial = 0; trial < 5; ++trial) {
    const Feature q = {rng.Uniform(175.0, 1996.0)};
    const double r = rng.Uniform(0.2, 1.0) * net.delta();
    const int initiator = static_cast<int>(rng.UniformInt(200));
    const RangeQueryResult engine = net.RangeQuery(initiator, q, r);
    auto dist = net.RangeQueryDistributed(initiator, q, r);
    ASSERT_TRUE(dist.ok()) << dist.status().ToString();
    EXPECT_EQ(dist.value().match_count,
              static_cast<long long>(engine.matches.size()));
  }
  for (int trial = 0; trial < 5; ++trial) {
    const int src = static_cast<int>(rng.UniformInt(200));
    const int dst = static_cast<int>(rng.UniformInt(200));
    const Feature danger = {rng.Uniform(175.0, 1996.0)};
    const double gamma = rng.Uniform(0.05, 0.3) * FeatureDiameter(ds);
    const PathQueryResult engine = net.SafePath(src, dst, danger, gamma);
    auto dist = net.SafePathDistributed(src, dst, danger, gamma);
    ASSERT_TRUE(dist.ok()) << dist.status().ToString();
    EXPECT_EQ(dist.value().found, engine.found);
    EXPECT_EQ(dist.value().path, engine.path);
  }
}

/// Per-category units, sends and bytes of two ledgers agree.
void ExpectSameLedger(const MessageStats& got, const MessageStats& want) {
  const std::vector<MessageStats::CategorySnapshot> g = got.Snapshot();
  const std::vector<MessageStats::CategorySnapshot> w = want.Snapshot();
  ASSERT_EQ(g.size(), w.size());
  for (size_t k = 0; k < g.size(); ++k) {
    EXPECT_EQ(g[k].category, w[k].category);
    EXPECT_EQ(g[k].units, w[k].units) << g[k].category;
    EXPECT_EQ(g[k].sends, w[k].sends) << g[k].category;
    EXPECT_EQ(g[k].bytes, w[k].bytes) << g[k].category;
  }
}

// The facade lends one route memo to the distributed protocols of every
// index version.  Routes depend on the topology alone, so answers over a
// memo warmed by earlier versions must equal those of protocol objects
// built fresh, with cold memos of their own.  The shared memo stays a
// linear resource however many versions it serves: past 4 entries per node
// it starts over, and answers after that match too.
TEST(ClusteredNetworkTest, FacadeRouteMemoServesEveryIndexVersion) {
  SyntheticConfig scfg;
  scfg.num_nodes = 120;
  scfg.seed = 17;
  const SensorDataset synthetic =
      std::move(MakeSyntheticDataset(scfg)).value();
  const SensorDataset terrain = TerrainDs();
  struct Case {
    const SensorDataset* ds;
    ElinkMode mode;
    bool synchronous;
  };
  for (const Case& c : {Case{&terrain, ElinkMode::kImplicit, true},
                        Case{&synthetic, ElinkMode::kExplicit, false}}) {
    const SensorDataset& ds = *c.ds;
    const int n = ds.topology.num_nodes();
    SCOPED_TRACE("n=" + std::to_string(n));
    ClusteredSensorNetwork::Options opts = DefaultOptions(ds);
    opts.mode = c.mode;
    opts.synchronous = c.synchronous;
    auto net_r = ClusteredSensorNetwork::Build(ds, opts);
    ASSERT_TRUE(net_r.ok()) << net_r.status().ToString();
    auto& net = *net_r.value();
    const double scale = FeatureDiameter(ds);
    Rng rng(29);
    std::vector<Feature> current = ds.features;
    const size_t bound =
        ClusteredSensorNetwork::kRouteMemoEntriesPerNode *
        static_cast<size_t>(n);
    size_t last_entries = 0;
    int rounds_after_clear = -1;  // Counts rounds once the memo restarted.
    for (int round = 0; round < 60 && rounds_after_clear < 2; ++round) {
      for (int i = 0; i < n; ++i) {
        current[i][0] += rng.Normal(0.0, 0.02 * scale);
        net.UpdateFeature(i, current[i]);
      }
      // A fresh index version, and protocol objects with cold memos over it.
      std::vector<Feature> features(n);
      for (int i = 0; i < n; ++i) features[i] = net.feature(i);
      DistributedRangeQuery::ProtocolOptions qopt;
      qopt.synchronous = opts.synchronous;
      qopt.seed = opts.seed;
      DistributedRangeQuery fresh_range(
          net.topology(), net.clustering(), net.cluster_index(),
          net.backbone(), features, net.metric(), qopt);
      PathProtocolOptions popt;
      popt.synchronous = opts.synchronous;
      popt.seed = opts.seed;
      DistributedPathQuery fresh_path(net.topology(), net.clustering(),
                                      net.cluster_index(), net.backbone(),
                                      features, net.metric(), popt);
      for (int k = 0; k < 6; ++k) {
        SCOPED_TRACE("round " + std::to_string(round) + " query " +
                     std::to_string(k));
        const int a = static_cast<int>(rng.UniformInt(n));
        const int b = static_cast<int>(rng.UniformInt(n));
        const Feature q = features[rng.UniformInt(n)];
        const double r = rng.Uniform(0.05, 0.3) * scale;
        auto got_range = net.RangeQueryDistributed(a, q, r);
        auto want_range = fresh_range.Run(a, q, r);
        ASSERT_TRUE(got_range.ok()) << got_range.status().ToString();
        ASSERT_TRUE(want_range.ok()) << want_range.status().ToString();
        EXPECT_EQ(got_range.value().match_count,
                  want_range.value().match_count);
        EXPECT_EQ(got_range.value().latency, want_range.value().latency);
        ExpectSameLedger(got_range.value().stats, want_range.value().stats);

        const double gamma = rng.Uniform(0.05, 0.3) * scale;
        auto got_path = net.SafePathDistributed(a, b, q, gamma);
        auto want_path = fresh_path.Run(a, b, q, gamma);
        ASSERT_TRUE(got_path.ok()) << got_path.status().ToString();
        ASSERT_TRUE(want_path.ok()) << want_path.status().ToString();
        EXPECT_EQ(got_path.value().found, want_path.value().found);
        EXPECT_EQ(got_path.value().path, want_path.value().path);
        ExpectSameLedger(got_path.value().stats, want_path.value().stats);

        const size_t entries = net.route_memo_entries();
        EXPECT_LE(entries, bound);
        if (entries < last_entries && rounds_after_clear < 0) {
          rounds_after_clear = 0;
        }
        last_entries = entries;
      }
      // The memo was lent, not copied: the fresh objects routed with their
      // own memos, the facade's kept what earlier versions stored.
      EXPECT_GT(fresh_range.route_memo().size(), 0u);
      if (rounds_after_clear >= 0) ++rounds_after_clear;
      if (HasFailure()) return;
    }
    EXPECT_EQ(rounds_after_clear, 2) << "the memo never reached its bound";
  }
}

TEST(ClusteredNetworkTest, LedgerAccumulatesAcrossPhases) {
  const SensorDataset ds = TerrainDs();
  auto net_r = ClusteredSensorNetwork::Build(ds, DefaultOptions(ds));
  ASSERT_TRUE(net_r.ok());
  auto& net = *net_r.value();
  const uint64_t after_build = net.total_stats().total_units();
  EXPECT_GE(after_build, net.clustering_cost_units());
  net.RangeQuery(0, ds.features[0], 0.5 * net.delta());
  EXPECT_GT(net.total_stats().total_units(), after_build);
}

TEST(ClusteredNetworkTest, ExplicitAsynchronousBuild) {
  SyntheticConfig scfg;
  scfg.num_nodes = 120;
  scfg.seed = 17;
  const SensorDataset ds = std::move(MakeSyntheticDataset(scfg)).value();
  ClusteredSensorNetwork::Options opts;
  opts.delta = 0.3 * FeatureDiameter(ds);
  opts.mode = ElinkMode::kExplicit;
  opts.synchronous = false;
  auto net = ClusteredSensorNetwork::Build(ds, opts);
  ASSERT_TRUE(net.ok());
  EXPECT_TRUE(ValidateDeltaClustering(net.value()->clustering(),
                                      ds.topology.adjacency, ds.features,
                                      *ds.metric, opts.delta)
                  .ok());
}

TEST(ClusteredNetworkTest, RejectsDatasetWithoutMetric) {
  SensorDataset ds;
  ds.topology = MakeGridTopology(2, 2);
  ds.features = {{0.0}, {0.0}, {0.0}, {0.0}};
  ClusteredSensorNetwork::Options opts;
  EXPECT_FALSE(ClusteredSensorNetwork::Build(ds, opts).ok());
}

}  // namespace
}  // namespace elink
