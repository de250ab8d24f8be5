// Resource bounds at scale: explicit ELink routes its phase and start waves
// between quadtree parents and children, so every node can be a routed
// destination.  Routing state must stay O(N) there; an O(N^2) structure
// (one N-entry table per destination is ~800 MB at N=10^4) fails the peak
// RSS bound below instead of only showing up as slower timings.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cmath>
#include <vector>

#include "check/invariants.h"
#include "cluster/elink.h"
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
}

}  // namespace
}  // namespace elink
