// Resource bounds at scale.  Explicit ELink routes its phase and start
// waves between quadtree parents and children, so every node can be a
// routed destination; the leader backbone spans thousands of leaders on
// fine clusterings.  Both must stay O(N) in memory: an O(N^2) structure
// (one N-entry table per destination or per leader is 100-800 MB at
// N=10^4) fails a peak RSS bound below instead of only showing up as
// slower timings.  The route memo is held to a constant number of entries
// per node for the same reason.
//
// ru_maxrss is a per-process high-water mark.  ctest runs every test in its
// own process; in a whole-binary run the smaller bound comes first.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cmath>
#include <vector>

#include "check/invariants.h"
#include "cluster/elink.h"
#include "index/backbone.h"
#include "metric/distance.h"
#include "sim/topology.h"

namespace elink {
namespace {

/// Peak resident set size of this process, in MB.
double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KB on Linux.
}

TEST(ScaleTest, BackboneOnGrid10kStaysLinear) {
#ifdef ELINK_SANITIZE_BUILD
  GTEST_SKIP() << "sanitizer shadow memory makes peak RSS meaningless";
#endif
  constexpr int kSide = 100;
  const Topology t = MakeGridTopology(kSide, kSide);
  // 2x2 blocks, each led by its top-left node: 2,500 leaders, and leaders
  // of neighbouring blocks are exactly two hops apart.
  Clustering clustering;
  clustering.root_of.resize(t.num_nodes());
  std::vector<Feature> features(t.num_nodes());
  for (int r = 0; r < kSide; ++r) {
    for (int c = 0; c < kSide; ++c) {
      clustering.root_of[r * kSide + c] = (r / 2 * 2) * kSide + c / 2 * 2;
      // Quantised, so many Prim weights tie.
      features[r * kSide + c] = {
          std::round(4.0 * (std::sin(r / 9.0) + std::cos(c / 13.0)))};
    }
  }
  const WeightedEuclidean metric = WeightedEuclidean::Euclidean(1);
  MessageStats stats;
  const Backbone backbone = Backbone::Build(clustering, t.adjacency, &stats,
                                            &features, &metric);
  constexpr int kLeaders = (kSide / 2) * (kSide / 2);
  ASSERT_EQ(backbone.leaders().size(), static_cast<size_t>(kLeaders));
  for (int leader : backbone.leaders()) {
    int steps = 0;
    int cur = leader;
    for (; backbone.tree_parent(cur) != cur && steps <= kLeaders; ++steps) {
      cur = backbone.tree_parent(cur);
    }
    EXPECT_EQ(cur, backbone.tree_root());
  }
  EXPECT_EQ(backbone.total_tree_hops(), 2 * (kLeaders - 1));
  EXPECT_LE(backbone.flood_hops(), t.num_nodes() - 1);
  // Per-leader hop tables alone would be 2,500 x 10^4 ints = 100 MB.
  EXPECT_LT(PeakRssMb(), 32.0);
}

TEST(ScaleTest, AsyncExplicitElinkOnGrid10kStaysUnder256Mb) {
#ifdef ELINK_SANITIZE_BUILD
  GTEST_SKIP() << "sanitizer shadow memory makes peak RSS meaningless";
#endif
  constexpr int kSide = 100;
  const Topology t = MakeGridTopology(kSide, kSide);
  // A smooth field, so clusters are contiguous patches of a few hundred
  // nodes and quadtree waves span the whole grid.
  std::vector<Feature> features(t.num_nodes());
  for (int r = 0; r < kSide; ++r) {
    for (int c = 0; c < kSide; ++c) {
      features[r * kSide + c] = {std::sin(r / 9.0) + std::cos(c / 13.0)};
    }
  }
  const WeightedEuclidean metric = WeightedEuclidean::Euclidean(1);
  ElinkConfig cfg;
  cfg.delta = 0.5;
  cfg.synchronous = false;
  cfg.seed = 7;
  Result<ElinkResult> r =
      RunElink(t, features, metric, cfg, ElinkMode::kExplicit);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.value().completed);
  const Status valid = check::CheckDeltaClustering(
      r.value().clustering, t.adjacency, features, metric, cfg.delta);
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  EXPECT_LT(PeakRssMb(), 256.0);
  // The route memo keeps one entry per (relay, destination) of every chain
  // routed, not a table per destination: 31,150 entries (3.1·N) here.
  EXPECT_GT(r.value().route_memo_entries, 0u);
  EXPECT_LE(r.value().route_memo_entries, 4u * t.num_nodes());
}

}  // namespace
}  // namespace elink
