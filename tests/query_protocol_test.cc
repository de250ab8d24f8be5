// Tests for the fully distributed range-query protocol: exact counts on
// synchronous and asynchronous networks, agreement with the centralized
// engine's cost model, and latency sanity.
#include <gtest/gtest.h>

#include <memory>

#include "cluster/elink.h"
#include "common/rng.h"
#include "data/synthetic.h"
#include "data/terrain.h"
#include "index/query_protocol.h"
#include "index/range_query.h"

namespace elink {
namespace {

struct ProtocolFixture {
  SensorDataset ds;
  Clustering clustering;
  std::vector<int> tree_parent;
  std::unique_ptr<ClusterIndex> index;
  std::unique_ptr<Backbone> backbone;
  double delta = 0.0;

  static ProtocolFixture Make(SensorDataset dataset, double delta_frac) {
    ProtocolFixture fx;
    fx.ds = std::move(dataset);
    fx.delta = delta_frac * FeatureDiameter(fx.ds);
    ElinkConfig cfg;
    cfg.delta = fx.delta;
    cfg.seed = 7;
    Result<ElinkResult> r = RunElink(fx.ds, cfg, ElinkMode::kImplicit);
    ELINK_CHECK(r.ok());
    fx.clustering = std::move(r.value().clustering);
    fx.tree_parent =
        BuildClusterTrees(fx.clustering, fx.ds.topology.adjacency);
    fx.index = std::make_unique<ClusterIndex>(ClusterIndex::Build(
        fx.clustering, fx.tree_parent, fx.ds.features, *fx.ds.metric));
    fx.backbone = std::make_unique<Backbone>(
        Backbone::Build(fx.clustering, fx.ds.topology.adjacency, nullptr,
                        &fx.ds.features, fx.ds.metric.get()));
    return fx;
  }

  DistributedRangeQuery MakeProtocol(bool synchronous = true,
                                     uint64_t seed = 1) const {
    return DistributedRangeQuery(ds.topology, clustering, *index, *backbone,
                                 ds.features, ds.metric, synchronous, seed);
  }
  RangeQueryEngine MakeEngine() const {
    return RangeQueryEngine(clustering, *index, *backbone, ds.features,
                            *ds.metric, delta);
  }
};

SensorDataset Terrain(int n = 180) {
  TerrainConfig cfg;
  cfg.num_nodes = n;
  cfg.radio_range_fraction = 0.1;
  cfg.seed = 9;
  return std::move(MakeTerrainDataset(cfg)).value();
}

TEST(QueryProtocolTest, CountsMatchLinearScan) {
  ProtocolFixture fx = ProtocolFixture::Make(Terrain(), 0.22);
  DistributedRangeQuery protocol = fx.MakeProtocol();
  RangeQueryEngine engine = fx.MakeEngine();
  Rng rng(3);
  for (int trial = 0; trial < 25; ++trial) {
    const Feature q = fx.ds.features[rng.UniformInt(180)];
    const double r = rng.Uniform(0.1, 1.1) * fx.delta;
    const int initiator = static_cast<int>(rng.UniformInt(180));
    Result<DistributedQueryOutcome> out = protocol.Run(initiator, q, r);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(out.value().match_count,
              static_cast<long long>(engine.LinearScan(q, r).size()))
        << "trial " << trial;
  }
}

TEST(QueryProtocolTest, WorksOnAsynchronousNetworks) {
  ProtocolFixture fx = ProtocolFixture::Make(Terrain(), 0.22);
  DistributedRangeQuery protocol =
      fx.MakeProtocol(/*synchronous=*/false, /*seed=*/99);
  RangeQueryEngine engine = fx.MakeEngine();
  Rng rng(5);
  for (int trial = 0; trial < 15; ++trial) {
    const Feature q = fx.ds.features[rng.UniformInt(180)];
    const double r = rng.Uniform(0.2, 0.9) * fx.delta;
    Result<DistributedQueryOutcome> out =
        protocol.Run(static_cast<int>(rng.UniformInt(180)), q, r);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.value().match_count,
              static_cast<long long>(engine.LinearScan(q, r).size()));
  }
}

TEST(QueryProtocolTest, CostAgreesWithEngineModel) {
  // The engine is an accounting model of exactly this protocol; totals must
  // land in the same ballpark (reply aggregation is counted slightly
  // differently: per-hop there, per-match here).
  ProtocolFixture fx = ProtocolFixture::Make(Terrain(), 0.22);
  DistributedRangeQuery protocol = fx.MakeProtocol();
  RangeQueryEngine engine = fx.MakeEngine();
  Rng rng(7);
  uint64_t protocol_total = 0, engine_total = 0;
  for (int trial = 0; trial < 15; ++trial) {
    const Feature q = fx.ds.features[rng.UniformInt(180)];
    const double r = 0.7 * fx.delta;
    const int initiator = static_cast<int>(rng.UniformInt(180));
    Result<DistributedQueryOutcome> out = protocol.Run(initiator, q, r);
    ASSERT_TRUE(out.ok());
    protocol_total += out.value().stats.total_units();
    engine_total += engine.Query(initiator, q, r).stats.total_units();
  }
  EXPECT_GT(protocol_total, engine_total / 3);
  EXPECT_LT(protocol_total, engine_total * 3);
}

TEST(QueryProtocolTest, SingleClusterNetwork) {
  // Uniform features: one cluster; the protocol reduces to root screening.
  SensorDataset ds;
  ds.topology = MakeGridTopology(4, 4);
  ds.features.assign(16, Feature{5.0});
  ds.metric =
      std::make_shared<WeightedEuclidean>(WeightedEuclidean::Euclidean(1));
  ProtocolFixture fx = ProtocolFixture::Make(std::move(ds), 0.5);
  DistributedRangeQuery protocol = fx.MakeProtocol();
  // Everything matches.
  Result<DistributedQueryOutcome> all = protocol.Run(3, {5.0}, 1.0);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.value().match_count, 16);
  // Nothing matches.
  Result<DistributedQueryOutcome> none = protocol.Run(3, {100.0}, 1.0);
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none.value().match_count, 0);
}

TEST(QueryProtocolTest, InitiatorVariantsTerminate) {
  ProtocolFixture fx = ProtocolFixture::Make(Terrain(120), 0.25);
  DistributedRangeQuery protocol = fx.MakeProtocol();
  const Feature q = fx.ds.features[0];
  // Initiator == its own cluster root.
  const int a_root = fx.clustering.root_of[0];
  Result<DistributedQueryOutcome> r1 = protocol.Run(a_root, q, fx.delta);
  ASSERT_TRUE(r1.ok());
  // Initiator == the backbone root.
  Result<DistributedQueryOutcome> r2 =
      protocol.Run(fx.backbone->tree_root(), q, fx.delta);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1.value().match_count, r2.value().match_count);
}

TEST(QueryProtocolTest, LatencyBoundedByNetworkScale) {
  ProtocolFixture fx = ProtocolFixture::Make(Terrain(), 0.22);
  DistributedRangeQuery protocol = fx.MakeProtocol();
  Result<DistributedQueryOutcome> out =
      protocol.Run(0, fx.ds.features[0], 0.8 * fx.delta);
  ASSERT_TRUE(out.ok());
  EXPECT_GT(out.value().latency, 0.0);
  // Generous bound: a constant number of network traversals.
  const int n = fx.ds.topology.num_nodes();
  EXPECT_LT(out.value().latency, 20.0 * n);
}

TEST(QueryProtocolTest, UncorrelatedDataStillExact) {
  SyntheticConfig cfg;
  cfg.num_nodes = 150;
  cfg.seed = 41;
  ProtocolFixture fx = ProtocolFixture::Make(
      std::move(MakeSyntheticDataset(cfg)).value(), 0.35);
  DistributedRangeQuery protocol = fx.MakeProtocol();
  RangeQueryEngine engine = fx.MakeEngine();
  Rng rng(11);
  for (int trial = 0; trial < 15; ++trial) {
    const Feature q = {rng.Uniform(0.3, 0.9)};
    const double r = rng.Uniform(0.2, 0.8) * fx.delta;
    Result<DistributedQueryOutcome> out =
        protocol.Run(static_cast<int>(rng.UniformInt(150)), q, r);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.value().match_count,
              static_cast<long long>(engine.LinearScan(q, r).size()));
  }
}

/// Same transmissions per category: sends, units and bytes on the air.
void ExpectSameStats(const MessageStats& got, const MessageStats& want) {
  EXPECT_EQ(got.units_by_category(), want.units_by_category());
  for (const auto& [category, units] : want.units_by_category()) {
    EXPECT_EQ(got.sends(category), want.sends(category)) << category;
    EXPECT_EQ(got.bytes(category), want.bytes(category)) << category;
  }
}

TEST(QueryProtocolTest, WarmRouteMemoLeavesOutcomesUnchanged) {
  // One object answers every query cold, then warm (its routes memoized);
  // both outcomes must equal a fresh object's, delays and all.
  ProtocolFixture fx = ProtocolFixture::Make(Terrain(), 0.22);
  DistributedRangeQuery shared =
      fx.MakeProtocol(/*synchronous=*/false, /*seed=*/99);
  Rng rng(13);
  for (int trial = 0; trial < 8; ++trial) {
    const Feature q = fx.ds.features[rng.UniformInt(180)];
    const double r = rng.Uniform(0.2, 1.0) * fx.delta;
    const int initiator = static_cast<int>(rng.UniformInt(180));
    DistributedRangeQuery fresh =
        fx.MakeProtocol(/*synchronous=*/false, /*seed=*/99);
    Result<DistributedQueryOutcome> want = fresh.Run(initiator, q, r);
    ASSERT_TRUE(want.ok());
    Result<DistributedQueryOutcome> cold = shared.Run(initiator, q, r);
    ASSERT_TRUE(cold.ok());
    const size_t entries = shared.route_memo().size();
    Result<DistributedQueryOutcome> warm = shared.Run(initiator, q, r);
    ASSERT_TRUE(warm.ok());
    // The warm run found every route in the memo.
    EXPECT_EQ(shared.route_memo().size(), entries);
    for (const DistributedQueryOutcome* got : {&cold.value(), &warm.value()}) {
      EXPECT_EQ(got->match_count, want.value().match_count) << trial;
      EXPECT_EQ(got->latency, want.value().latency) << trial;
      ExpectSameStats(got->stats, want.value().stats);
    }
  }
  EXPECT_GT(shared.route_memo().size(), 0u);
}

TEST(QueryProtocolTest, RejectsBadArguments) {
  ProtocolFixture fx = ProtocolFixture::Make(Terrain(120), 0.25);
  DistributedRangeQuery protocol = fx.MakeProtocol();
  EXPECT_FALSE(protocol.Run(-1, fx.ds.features[0], 1.0).ok());
  EXPECT_FALSE(protocol.Run(0, fx.ds.features[0], -1.0).ok());
}

}  // namespace
}  // namespace elink
