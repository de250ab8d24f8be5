// Equivalence of the leader backbone with its straightforward construction.
//
// The reference below builds the backbone the direct way: a full BFS hop
// table from every leader, a medoid over all leader pairs, a Prim that
// rescans every crossing edge on each step, and std::set bookkeeping.  The
// library builds the same backbone with hop counts for tree edges only, a
// lazy heap and dense vectors; every observable output must agree exactly
// on ELink (implicit and explicit) clusterings and on random connected
// partitions, with and without leader features, including quantised
// features whose Prim weights tie.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cluster/clustering.h"
#include "cluster/elink.h"
#include "common/rng.h"
#include "index/backbone.h"
#include "index/mtree.h"
#include "metric/distance.h"
#include "sim/graph.h"
#include "sim/stats.h"
#include "sim/topology.h"

namespace elink {
namespace {

struct ReferenceBackbone {
  std::vector<int> leaders;
  std::map<int, int> tree_parent;
  std::map<int, std::vector<int>> tree_children;
  int tree_root = -1;
  int total_tree_hops = 0;
  int flood_hops = 0;
  std::map<int, std::vector<int>> hops_from_leader;

  int route_hops(int a, int b) const {
    if (a == b) return 0;
    return hops_from_leader.at(a)[b];
  }
};

ReferenceBackbone BuildReference(const Clustering& clustering,
                                 const AdjacencyList& adjacency,
                                 MessageStats* build_stats,
                                 const std::vector<Feature>* features,
                                 const DistanceMetric* metric) {
  ReferenceBackbone bb;
  const int n = static_cast<int>(adjacency.size());

  std::set<int> leader_set;
  for (int i = 0; i < n; ++i) leader_set.insert(clustering.root_of[i]);
  bb.leaders.assign(leader_set.begin(), leader_set.end());

  std::map<int, std::set<int>> cluster_adj;
  std::set<std::pair<int, int>> seen_pairs;
  for (int u = 0; u < n; ++u) {
    for (int v : adjacency[u]) {
      if (u > v) continue;
      const int ru = clustering.root_of[u];
      const int rv = clustering.root_of[v];
      if (ru == rv) continue;
      cluster_adj[ru].insert(rv);
      cluster_adj[rv].insert(ru);
      if (build_stats != nullptr &&
          seen_pairs.insert(std::minmax(ru, rv)).second) {
        build_stats->Record("backbone_build", 1);
        build_stats->Record("backbone_build", 1);
      }
    }
  }

  for (int leader : bb.leaders) {
    bb.hops_from_leader[leader] = HopDistancesFrom(adjacency, leader);
    bb.tree_children[leader] = {};
  }

  if (features != nullptr && metric != nullptr && bb.leaders.size() > 1) {
    int root = bb.leaders.front();
    double best_ecc = 1e300;
    for (int cand : bb.leaders) {
      double ecc = 0.0;
      for (int other : bb.leaders) {
        ecc = std::max(
            ecc, metric->Distance((*features)[cand], (*features)[other]));
      }
      if (ecc < best_ecc) {
        best_ecc = ecc;
        root = cand;
      }
    }
    bb.tree_root = root;
    bb.tree_parent[root] = root;
    std::set<int> visited{root};
    while (visited.size() < bb.leaders.size()) {
      double best_w = 1e300;
      int best_from = -1, best_to = -1;
      for (int in : visited) {
        for (int out : cluster_adj[in]) {
          if (visited.count(out)) continue;
          const double w =
              metric->Distance((*features)[in], (*features)[out]);
          if (w < best_w || (w == best_w && out < best_to)) {
            best_w = w;
            best_from = in;
            best_to = out;
          }
        }
      }
      ELINK_CHECK(best_to >= 0);
      bb.tree_parent[best_to] = best_from;
      bb.tree_children[best_from].push_back(best_to);
      visited.insert(best_to);
    }
    for (auto& [leader, kids] : bb.tree_children) {
      (void)leader;
      std::sort(kids.begin(), kids.end());
    }
  } else {
    bb.tree_root = bb.leaders.front();
    bb.tree_parent[bb.tree_root] = bb.tree_root;
    std::deque<int> queue{bb.tree_root};
    std::set<int> visited{bb.tree_root};
    while (!queue.empty()) {
      const int cur = queue.front();
      queue.pop_front();
      for (int nb : cluster_adj[cur]) {
        if (visited.insert(nb).second) {
          bb.tree_parent[nb] = cur;
          bb.tree_children[cur].push_back(nb);
          queue.push_back(nb);
        }
      }
    }
    ELINK_CHECK(visited.size() == bb.leaders.size());
  }

  for (int leader : bb.leaders) {
    const int parent = bb.tree_parent[leader];
    if (parent != leader) {
      const int hops = bb.route_hops(leader, parent);
      bb.total_tree_hops += hops;
      if (build_stats != nullptr) {
        for (int h = 0; h < hops; ++h) {
          build_stats->Record("backbone_build", 1);
        }
      }
    }
  }

  const std::vector<int> parents = BfsTreeParents(adjacency, bb.tree_root);
  std::set<int> marked;
  for (int leader : bb.leaders) {
    for (int cur = leader; marked.insert(cur).second && cur != bb.tree_root;
         cur = parents[cur]) {
    }
  }
  marked.insert(bb.tree_root);
  bb.flood_hops = static_cast<int>(marked.size()) - 1;
  return bb;
}

/// Builds both backbones and compares every observable; returns the number
/// of leaders so callers can check the inputs are not degenerate.
size_t ExpectSameBackbone(const Clustering& clustering,
                          const AdjacencyList& adjacency,
                          const std::vector<Feature>* features,
                          const DistanceMetric* metric,
                          const std::string& label) {
  SCOPED_TRACE(label);
  MessageStats want_stats, got_stats;
  const ReferenceBackbone want =
      BuildReference(clustering, adjacency, &want_stats, features, metric);
  const Backbone got =
      Backbone::Build(clustering, adjacency, &got_stats, features, metric);

  EXPECT_EQ(got.leaders(), want.leaders);
  EXPECT_EQ(got.tree_root(), want.tree_root);
  for (int leader : want.leaders) {
    const int parent = want.tree_parent.at(leader);
    EXPECT_EQ(got.tree_parent(leader), parent) << "leader " << leader;
    EXPECT_EQ(got.tree_children(leader), want.tree_children.at(leader))
        << "leader " << leader;
    // Both directions of the tree edge cost what the hop tables said.
    EXPECT_EQ(got.parent_hops(leader), want.route_hops(leader, parent))
        << "leader " << leader;
    EXPECT_EQ(got.parent_hops(leader), want.route_hops(parent, leader))
        << "leader " << leader;
  }
  EXPECT_EQ(got.total_tree_hops(), want.total_tree_hops);
  EXPECT_EQ(got.flood_hops(), want.flood_hops);
  EXPECT_EQ(got_stats.ToString(), want_stats.ToString());
  return want.leaders.size();
}

/// Random connected partition: random roots, every node assigned to a
/// random one, then stranded fragments split off into clusters of their own.
Clustering RandomConnectedPartition(const AdjacencyList& adjacency,
                                    Rng* rng) {
  const int n = static_cast<int>(adjacency.size());
  const int k = 1 + static_cast<int>(rng->UniformInt(n / 8 + 1));
  std::vector<int> roots;
  for (int j = 0; j < k; ++j) {
    roots.push_back(static_cast<int>(rng->UniformInt(n)));
  }
  Clustering c;
  c.root_of.resize(n);
  for (int i = 0; i < n; ++i) {
    c.root_of[i] = roots[rng->UniformInt(roots.size())];
  }
  for (int r : roots) c.root_of[r] = r;
  RepairDisconnectedClusters(&c, adjacency);
  return c;
}

TEST(BackboneEquivalenceTest, MatchesReferenceOnRandomDiskGraphs) {
  Rng rng(913);
  const WeightedEuclidean metric1 = WeightedEuclidean::Euclidean(1);
  const WeightedEuclidean metric2 = WeightedEuclidean::Euclidean(2);
  int multi_leader_cases = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 20 + static_cast<int>(rng.UniformInt(381));
    const double side = std::sqrt(n / 2.0);
    Result<Topology> topo = MakeRandomTopology(n, side, 1.2, &rng);
    ASSERT_TRUE(topo.ok());
    const Topology& t = topo.value();

    // A smooth field over the plane, quantised to a few levels on every
    // other trial so equal Prim weights are common.
    const bool quantised = trial % 2 == 0;
    const bool two_dim = trial % 3 == 0;
    const double fx = rng.Uniform(0.5, 3.0), fy = rng.Uniform(0.5, 3.0);
    std::vector<Feature> features(n);
    for (int i = 0; i < n; ++i) {
      const double x = t.positions[i].x / side, y = t.positions[i].y / side;
      Feature f = {std::sin(fx * x) + std::cos(fy * y) +
                   0.2 * rng.Uniform01()};
      if (two_dim) f.push_back(std::cos(fx * x * y) + 0.2 * rng.Uniform01());
      if (quantised) {
        for (double& v : f) v = std::round(3.0 * v);
      }
      features[i] = f;
    }
    const DistanceMetric& metric =
        two_dim ? static_cast<const DistanceMetric&>(metric2) : metric1;

    std::vector<std::pair<std::string, Clustering>> clusterings;
    ElinkConfig cfg;
    cfg.delta = (quantised ? 3.0 : 1.0) * rng.Uniform(0.2, 1.0);
    cfg.seed = trial + 1;
    for (ElinkMode mode : {ElinkMode::kImplicit, ElinkMode::kExplicit}) {
      Result<ElinkResult> r = RunElink(t, features, metric, cfg, mode);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      clusterings.emplace_back(
          mode == ElinkMode::kImplicit ? "implicit" : "explicit",
          std::move(r.value().clustering));
    }
    clusterings.emplace_back("partition",
                             RandomConnectedPartition(t.adjacency, &rng));

    for (const auto& [name, clustering] : clusterings) {
      const std::string label = "trial " + std::to_string(trial) + " n=" +
                                std::to_string(n) + " " + name;
      const size_t leaders = ExpectSameBackbone(clustering, t.adjacency,
                                                &features, &metric, label);
      ExpectSameBackbone(clustering, t.adjacency, nullptr, nullptr,
                         label + " no-features");
      if (leaders > 1) ++multi_leader_cases;
      if (HasFailure()) return;
    }
  }
  EXPECT_GT(multi_leader_cases, 500);
}

/// Every leader's backbone-subtree member list built the direct way, as the
/// query engines once did: children before parents, each leader copying its
/// own cluster and then every child's finished list.
std::map<int, std::vector<int>> ReferenceBackboneMembers(
    const Backbone& backbone, const ClusterIndex& index) {
  std::map<int, std::vector<int>> members;
  for (int leader : backbone.leaders_bottom_up()) {
    std::vector<int> list = index.subtree(leader);
    for (int child : backbone.tree_children(leader)) {
      const std::vector<int>& sub = members.at(child);
      list.insert(list.end(), sub.begin(), sub.end());
    }
    members[leader] = std::move(list);
  }
  return members;
}

TEST(BackboneMembersTest, MatchesPerLeaderListsOnRandomDiskGraphs) {
  Rng rng(4242);
  const WeightedEuclidean metric = WeightedEuclidean::Euclidean(1);
  int deep_cases = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 20 + static_cast<int>(rng.UniformInt(581));
    const double side = std::sqrt(n / 2.0);
    Result<Topology> topo = MakeRandomTopology(n, side, 1.2, &rng);
    ASSERT_TRUE(topo.ok());
    const Topology& t = topo.value();
    const double fx = rng.Uniform(0.5, 3.0), fy = rng.Uniform(0.5, 3.0);
    std::vector<Feature> features(n);
    for (int i = 0; i < n; ++i) {
      const double x = t.positions[i].x / side, y = t.positions[i].y / side;
      features[i] = {std::sin(fx * x) + std::cos(fy * y) +
                     0.2 * rng.Uniform01()};
    }
    ElinkConfig cfg;
    cfg.delta = rng.Uniform(0.1, 1.0);
    cfg.seed = trial + 1;
    Result<ElinkResult> elink =
        RunElink(t, features, metric, cfg, ElinkMode::kImplicit);
    ASSERT_TRUE(elink.ok()) << elink.status().ToString();
    const Clustering clusterings[] = {
        elink.value().clustering, RandomConnectedPartition(t.adjacency, &rng)};
    for (const Clustering& clustering : clusterings) {
      SCOPED_TRACE("trial " + std::to_string(trial) + " n=" +
                   std::to_string(n));
      const ClusterIndex index = ClusterIndex::Build(
          clustering, BuildClusterTrees(clustering, t.adjacency), features,
          metric);
      for (bool prim : {true, false}) {
        const Backbone backbone =
            prim ? Backbone::Build(clustering, t.adjacency, nullptr,
                                   &features, &metric)
                 : Backbone::Build(clustering, t.adjacency);
        const BackboneMembers got(backbone, index);
        const std::map<int, std::vector<int>> want =
            ReferenceBackboneMembers(backbone, index);
        for (const auto& [leader, list] : want) {
          std::vector<int> got_sorted(got.of(leader).begin(),
                                      got.of(leader).end());
          std::vector<int> want_sorted = list;
          std::sort(got_sorted.begin(), got_sorted.end());
          std::sort(want_sorted.begin(), want_sorted.end());
          EXPECT_EQ(got_sorted, want_sorted) << "leader " << leader;
        }
        // The root's span is every node exactly once.
        EXPECT_EQ(got.of(backbone.tree_root()).size(),
                  static_cast<size_t>(n));
        size_t total = 0;
        for (const auto& [leader, list] : want) total += list.size();
        if (total > 3 * static_cast<size_t>(n)) ++deep_cases;
        if (HasFailure()) return;
      }
    }
  }
  // Backbones deep enough that the per-leader lists copied each node
  // several times over.
  EXPECT_GT(deep_cases, 20);
}

}  // namespace
}  // namespace elink
