// Tests for src/cluster: the clustering model (validation, repair, cluster
// trees) and the quadtree sentinel decomposition.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <set>
#include <string>

#include "cluster/clustering.h"
#include "cluster/elink.h"
#include "cluster/quadtree.h"
#include "common/rng.h"
#include "common/strings.h"
#include "metric/distance.h"
#include "sim/topology.h"

namespace elink {
namespace {

WeightedEuclidean OneDim() { return WeightedEuclidean::Euclidean(1); }

TEST(ClusteringTest, NumClustersAndGroups) {
  Clustering c;
  c.root_of = {0, 0, 2, 2, 2};
  EXPECT_EQ(c.num_clusters(), 2);
  const auto groups = c.Groups();
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].first, 0);
  EXPECT_EQ(groups[0].second, (std::vector<int>{0, 1}));
  EXPECT_EQ(groups[1].second, (std::vector<int>{2, 3, 4}));
  EXPECT_TRUE(c.SameCluster(0, 1));
  EXPECT_FALSE(c.SameCluster(1, 2));
}

TEST(ValidateTest, AcceptsValidClustering) {
  // Path 0-1-2-3 with features 0, 1, 5, 6 and delta 2: {0,1}, {2,3}.
  Topology t = MakeGridTopology(1, 4);
  std::vector<Feature> f = {{0.0}, {1.0}, {5.0}, {6.0}};
  Clustering c;
  c.root_of = {0, 0, 2, 2};
  EXPECT_TRUE(
      ValidateDeltaClustering(c, t.adjacency, f, OneDim(), 2.0).ok());
}

TEST(ValidateTest, RejectsCompactnessViolation) {
  Topology t = MakeGridTopology(1, 3);
  std::vector<Feature> f = {{0.0}, {1.0}, {9.0}};
  Clustering c;
  c.root_of = {0, 0, 0};
  Status st = ValidateDeltaClustering(c, t.adjacency, f, OneDim(), 2.0);
  EXPECT_FALSE(st.ok());
}

TEST(ValidateTest, RejectsDisconnectedCluster) {
  // Path 0-1-2: cluster {0, 2} is disconnected without 1.
  Topology t = MakeGridTopology(1, 3);
  std::vector<Feature> f = {{0.0}, {0.0}, {0.0}};
  Clustering c;
  c.root_of = {0, 1, 0};
  EXPECT_FALSE(
      ValidateDeltaClustering(c, t.adjacency, f, OneDim(), 5.0).ok());
}

TEST(ValidateTest, RejectsUnclusteredNode) {
  Topology t = MakeGridTopology(1, 2);
  std::vector<Feature> f = {{0.0}, {0.0}};
  Clustering c;
  c.root_of = {0, -1};
  EXPECT_FALSE(
      ValidateDeltaClustering(c, t.adjacency, f, OneDim(), 5.0).ok());
}

TEST(ValidateTest, RejectsRootOutsideOwnCluster) {
  Topology t = MakeGridTopology(1, 2);
  std::vector<Feature> f = {{0.0}, {0.0}};
  Clustering c;
  c.root_of = {1, 0};  // Each points at the other: no root is its own.
  EXPECT_FALSE(
      ValidateDeltaClustering(c, t.adjacency, f, OneDim(), 5.0).ok());
}

// Connectivity of one cluster by union-find over its internal edges, so the
// reference below shares no search code with the library.
bool UnionFindConnected(const AdjacencyList& adjacency,
                        const std::vector<int>& root_of, int root,
                        const std::vector<int>& members) {
  std::vector<int> up(adjacency.size());
  for (size_t i = 0; i < up.size(); ++i) up[i] = static_cast<int>(i);
  const auto find = [&](int x) {
    while (up[x] != x) x = up[x] = up[up[x]];
    return x;
  };
  for (int u : members) {
    for (int v : adjacency[u]) {
      if (root_of[v] == root) up[find(u)] = find(v);
    }
  }
  const int top = find(root);
  return std::all_of(members.begin(), members.end(),
                     [&](int m) { return find(m) == top; });
}

// ValidateDeltaClustering as it stood with one N-sized mask and one
// connectivity pass per cluster, with union-find in place of the search: the
// reference for the error text, including which fault is reported first.
Status ReferenceValidate(const Clustering& clustering,
                         const AdjacencyList& adjacency,
                         const std::vector<Feature>& features,
                         const DistanceMetric& metric, double delta) {
  const size_t n = adjacency.size();
  if (clustering.root_of.size() != n) {
    return Status::FailedPrecondition("clustering size mismatch");
  }
  for (size_t i = 0; i < n; ++i) {
    const int r = clustering.root_of[i];
    if (r < 0 || static_cast<size_t>(r) >= n) {
      return Status::FailedPrecondition(
          StringPrintf("node %zu unclustered or root out of range", i));
    }
    if (clustering.root_of[r] != r) {
      return Status::FailedPrecondition(StringPrintf(
          "root %d of node %zu is not a member of its own cluster", r, i));
    }
  }
  for (const auto& [root, members] : clustering.Groups()) {
    if (!UnionFindConnected(adjacency, clustering.root_of, root, members)) {
      return Status::FailedPrecondition(
          StringPrintf("cluster rooted at %d is disconnected", root));
    }
    for (size_t a = 0; a < members.size(); ++a) {
      for (size_t b = a + 1; b < members.size(); ++b) {
        const double d =
            metric.Distance(features[members[a]], features[members[b]]);
        if (d > delta + 1e-9) {
          return Status::FailedPrecondition(StringPrintf(
              "cluster rooted at %d violates delta: d(%d, %d) = %.6f > %.6f",
              root, members[a], members[b], d, delta));
        }
      }
    }
  }
  return Status::OK();
}

TEST(ValidateTest, MatchesReferenceOnRandomClusterings) {
  // ELink outputs on random fields whose feature follows x (so clusters are
  // strips with cut nodes), then per trial: left valid, split by moving a
  // cut node out of its cluster, given a delta violation, or both faults in
  // two different clusters (in either root order).
  Rng rng(1717);
  const WeightedEuclidean metric = OneDim();
  std::map<std::string, int> outcomes;
  for (int trial = 0; trial < 240; ++trial) {
    const int n = 20 + static_cast<int>(rng.UniformInt(181));
    Result<Topology> t = MakeRandomTopology(n, 10.0, 1.0 + rng.Uniform01(),
                                            &rng);
    ASSERT_TRUE(t.ok());
    const AdjacencyList& adj = t.value().adjacency;
    std::vector<Feature> f(n);
    for (int i = 0; i < n; ++i) {
      f[i] = {t.value().positions[i].x + rng.Uniform(0.0, 0.5)};
    }
    ElinkConfig cfg;
    cfg.delta = rng.Uniform(1.0, 4.0);
    Result<ElinkResult> run =
        RunElink(t.value(), f, metric, cfg,
                 trial % 2 ? ElinkMode::kExplicit : ElinkMode::kImplicit);
    ASSERT_TRUE(run.ok());
    Clustering c = run.value().clustering;
    std::vector<std::vector<int>> clusters;
    for (auto& [root, members] : c.Groups()) {
      if (members.size() >= 3) clusters.push_back(std::move(members));
    }
    for (size_t i = clusters.size(); i > 1; --i) {
      std::swap(clusters[i - 1], clusters[rng.UniformInt(i)]);
    }
    const int kind = trial % 4;
    size_t split_cluster = clusters.size();
    for (size_t k = 0; (kind == 1 || kind == 3) && k < clusters.size(); ++k) {
      // The first member whose removal disconnects the cluster becomes its
      // own singleton, or on odd trials joins a neighbouring cluster.
      const std::vector<int>& members = clusters[k];
      const int root = c.root_of[members.front()];
      for (int x : members) {
        if (x == root) continue;
        std::vector<int> root_of = c.root_of;
        root_of[x] = x;
        std::vector<int> rest;
        for (int m : members) {
          if (m != x) rest.push_back(m);
        }
        if (UnionFindConnected(adj, root_of, root, rest)) continue;
        c.root_of[x] = x;
        for (int v : adj[x]) {
          if (trial % 2 && c.root_of[v] != root && v != x) {
            c.root_of[x] = c.root_of[v];
            break;
          }
        }
        split_cluster = k;
        break;
      }
      if (split_cluster < clusters.size()) break;
    }
    for (size_t k = 0; kind >= 2 && k < clusters.size(); ++k) {
      // Push one non-root member of another cluster beyond delta.
      if (k == split_cluster) continue;
      const std::vector<int>& members = clusters[k];
      const int root = c.root_of[members.front()];
      const int x = members.front() != root ? members.front() : members[1];
      f[x][0] += 2.0 * cfg.delta;
      break;
    }
    const Status want = ReferenceValidate(c, adj, f, metric, cfg.delta);
    const Status got = ValidateDeltaClustering(c, adj, f, metric, cfg.delta);
    EXPECT_EQ(got.ToString(), want.ToString()) << "trial " << trial;
    std::string outcome = "ok";
    if (!want.ok()) {
      outcome = want.ToString().find("disconnected") != std::string::npos
                    ? "split"
                    : "delta";
    }
    ++outcomes[(kind == 3 ? "both:" : "") + outcome];
  }
  // Every outcome is exercised, and with both faults present either one can
  // be the first reported.
  EXPECT_GT(outcomes["ok"], 40);
  EXPECT_GT(outcomes["split"], 20);
  EXPECT_GT(outcomes["delta"], 20);
  EXPECT_GT(outcomes["both:split"], 10);
  EXPECT_GT(outcomes["both:delta"], 10);
}

TEST(RepairTest, SplitsStrandedFragment) {
  // Path 0-1-2-3-4; cluster A = {0,1,3,4} (1 and 3 not adjacent), B = {2}.
  Topology t = MakeGridTopology(1, 5);
  Clustering c;
  c.root_of = {0, 0, 2, 0, 0};
  const int created = RepairDisconnectedClusters(&c, t.adjacency);
  EXPECT_EQ(created, 1);
  // Component containing root 0 keeps it; {3,4} promotes 3.
  EXPECT_EQ(c.root_of[0], 0);
  EXPECT_EQ(c.root_of[1], 0);
  EXPECT_EQ(c.root_of[2], 2);
  EXPECT_EQ(c.root_of[3], 3);
  EXPECT_EQ(c.root_of[4], 3);
  std::vector<Feature> f(5, Feature{0.0});
  EXPECT_TRUE(
      ValidateDeltaClustering(c, t.adjacency, f, OneDim(), 1.0).ok());
}

TEST(RepairTest, NoOpOnConnectedClusters) {
  Topology t = MakeGridTopology(2, 3);
  Clustering c;
  c.root_of = {0, 0, 2, 0, 0, 2};
  Clustering before = c;
  EXPECT_EQ(RepairDisconnectedClusters(&c, t.adjacency), 0);
  EXPECT_EQ(c.root_of, before.root_of);
}

TEST(ClusterTreesTest, TreesSpanClustersAndRespectEdges) {
  Topology t = MakeGridTopology(3, 3);
  Clustering c;
  // Left 2 columns one cluster rooted at 4, right column rooted at 2.
  c.root_of = {4, 4, 2, 4, 4, 2, 4, 4, 2};
  const auto parent = BuildClusterTrees(c, t.adjacency);
  for (int i = 0; i < 9; ++i) {
    if (i == c.root_of[i]) {
      EXPECT_EQ(parent[i], i);
    } else {
      // Parent is a communication neighbor in the same cluster.
      EXPECT_TRUE(t.HasEdge(i, parent[i]));
      EXPECT_EQ(c.root_of[parent[i]], c.root_of[i]);
      // Walking parents reaches the root.
      int cur = i, steps = 0;
      while (cur != c.root_of[i] && steps < 10) {
        cur = parent[cur];
        ++steps;
      }
      EXPECT_EQ(cur, c.root_of[i]);
    }
  }
}

// -- Quadtree -----------------------------------------------------------------

// Reference versions of RepairDisconnectedClusters and BuildClusterTrees:
// one N-sized mask and one InducedComponents / BFS pass per cluster.  The
// library runs both as a single pass over intra-cluster edges; the outputs
// must agree exactly.
int ReferenceRepair(Clustering* clustering, const AdjacencyList& adjacency) {
  const size_t n = adjacency.size();
  int created = 0;
  for (const auto& [root, members] : clustering->Groups()) {
    std::vector<char> mask(n, 0);
    for (int m : members) mask[m] = 1;
    const std::vector<int> comp = InducedComponents(adjacency, mask);
    const int root_comp = comp[root];
    std::map<int, int> new_root_of_comp;
    for (int m : members) {
      if (comp[m] == root_comp) continue;
      auto [it, inserted] = new_root_of_comp.emplace(comp[m], m);
      if (!inserted) it->second = std::min(it->second, m);
    }
    created += static_cast<int>(new_root_of_comp.size());
    for (int m : members) {
      if (comp[m] != root_comp) {
        clustering->root_of[m] = new_root_of_comp[comp[m]];
      }
    }
  }
  return created;
}

std::vector<int> ReferenceClusterTrees(const Clustering& clustering,
                                       const AdjacencyList& adjacency) {
  const size_t n = adjacency.size();
  std::vector<int> parent(n, -1);
  for (const auto& [root, members] : clustering.Groups()) {
    std::vector<char> mask(n, 0);
    for (int m : members) mask[m] = 1;
    std::deque<int> queue{root};
    parent[root] = root;
    while (!queue.empty()) {
      const int u = queue.front();
      queue.pop_front();
      for (int v : adjacency[u]) {
        if (mask[v] && parent[v] < 0) {
          parent[v] = u;
          queue.push_back(v);
        }
      }
    }
  }
  return parent;
}

TEST(RepairTest, SinglePassMatchesPerClusterReference) {
  Rng rng(2024);
  int total_created = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const int n = 20 + static_cast<int>(rng.UniformInt(281));
    Result<Topology> t = MakeRandomTopology(n, 10.0, 1.0 + rng.Uniform01(),
                                            &rng);
    ASSERT_TRUE(t.ok());
    const AdjacencyList& adj = t.value().adjacency;
    // A few roots, every other node assigned to a random one: clusters are
    // scattered over the field and strand many fragments.  Some trials also
    // leave nodes unassigned or point a cluster at a root outside it.
    const int k = 1 + static_cast<int>(rng.UniformInt(12));
    std::vector<int> roots;
    for (int j = 0; j < k; ++j) {
      roots.push_back(static_cast<int>(rng.UniformInt(n)));
    }
    Clustering c;
    c.root_of.resize(n);
    for (int i = 0; i < n; ++i) {
      c.root_of[i] = roots[rng.UniformInt(roots.size())];
    }
    for (int r : roots) c.root_of[r] = r;
    if (trial % 4 == 1) {
      for (int i = 0; i < n; ++i) {
        if (rng.Bernoulli(0.1)) c.root_of[i] = -1;
      }
    }
    if (trial % 4 == 2) c.root_of[roots[0]] = roots.back();

    Clustering expected = c;
    const int expected_created = ReferenceRepair(&expected, adj);
    const std::vector<int> expected_raw_trees =
        ReferenceClusterTrees(c, adj);
    EXPECT_EQ(BuildClusterTrees(c, adj), expected_raw_trees)
        << "trial " << trial;
    const int created = RepairDisconnectedClusters(&c, adj);
    EXPECT_EQ(created, expected_created) << "trial " << trial;
    EXPECT_EQ(c.root_of, expected.root_of) << "trial " << trial;
    EXPECT_EQ(BuildClusterTrees(c, adj), ReferenceClusterTrees(c, adj))
        << "trial " << trial;
    total_created += created;
  }
  EXPECT_GT(total_created, 100);  // The inputs really strand fragments.
}

TEST(QuadtreeTest, EveryNodeExactlyOneSentinelLevel) {
  Topology t = MakeGridTopology(8, 8);
  const auto q = QuadtreeDecomposition::Build(t);
  int total = 0;
  for (int l = 0; l < q.num_levels(); ++l) {
    total += static_cast<int>(q.sentinel_set(l).size());
    for (int node : q.sentinel_set(l)) EXPECT_EQ(q.level_of(node), l);
  }
  EXPECT_EQ(total, 64);
  EXPECT_EQ(q.sentinel_set(0).size(), 1u);
}

TEST(QuadtreeTest, SentinelSetSizesBoundedByPowersOfFour) {
  Topology t = MakeGridTopology(8, 8);
  const auto q = QuadtreeDecomposition::Build(t);
  long long cap = 1;
  for (int l = 0; l < q.num_levels(); ++l) {
    EXPECT_LE(static_cast<long long>(q.sentinel_set(l).size()), cap);
    cap *= 4;
  }
}

TEST(QuadtreeTest, QuadParentIsOneLevelUp) {
  Topology t = MakeGridTopology(8, 8);
  const auto q = QuadtreeDecomposition::Build(t);
  for (int i = 0; i < t.num_nodes(); ++i) {
    if (i == q.root()) {
      EXPECT_EQ(q.quad_parent(i), i);
      EXPECT_EQ(q.level_of(i), 0);
    } else {
      EXPECT_EQ(q.level_of(q.quad_parent(i)), q.level_of(i) - 1);
    }
  }
}

TEST(QuadtreeTest, QuadChildrenInverseOfParent) {
  Topology t = MakeGridTopology(6, 9);
  const auto q = QuadtreeDecomposition::Build(t);
  for (int i = 0; i < t.num_nodes(); ++i) {
    for (int child : q.quad_children(i)) {
      EXPECT_EQ(q.quad_parent(child), i);
    }
    if (i != q.root()) {
      const auto& siblings = q.quad_children(q.quad_parent(i));
      EXPECT_NE(std::find(siblings.begin(), siblings.end(), i),
                siblings.end());
    }
  }
}

TEST(QuadtreeTest, RootNearCenter) {
  Topology t = MakeGridTopology(9, 9);  // Center node exists: (4,4) = 40.
  const auto q = QuadtreeDecomposition::Build(t);
  EXPECT_EQ(q.root(), 40);
}

TEST(QuadtreeTest, DepthLogarithmicOnGrids) {
  // The paper: alpha ~ log4(3N + 1) - 1 for grids; allow the +k slack of
  // footnote 2.
  for (int side : {4, 8, 16}) {
    Topology t = MakeGridTopology(side, side);
    const auto q = QuadtreeDecomposition::Build(t);
    const double alpha_paper =
        std::log(3.0 * t.num_nodes() + 1) / std::log(4.0) - 1.0;
    EXPECT_LE(q.num_levels() - 1, static_cast<int>(alpha_paper) + 3);
  }
}

TEST(QuadtreeTest, HandlesRandomTopology) {
  Rng rng(91);
  Result<Topology> t = MakeRandomTopology(200, 10.0, 1.2, &rng);
  ASSERT_TRUE(t.ok());
  const auto q = QuadtreeDecomposition::Build(t.value());
  int total = 0;
  for (int l = 0; l < q.num_levels(); ++l) {
    total += static_cast<int>(q.sentinel_set(l).size());
  }
  EXPECT_EQ(total, 200);
}

TEST(QuadtreeTest, HandlesCoincidentPositions) {
  // All nodes at the same position: the depth cap must assign everyone.
  Topology t;
  t.width = 1.0;
  t.height = 1.0;
  t.positions.assign(10, Point2D{0.5, 0.5});
  t.adjacency.assign(10, {});
  for (int i = 0; i < 10; ++i) {
    for (int j = 0; j < 10; ++j) {
      if (i != j) t.adjacency[i].push_back(j);
    }
  }
  const auto q = QuadtreeDecomposition::Build(t, /*max_levels=*/4);
  int total = 0;
  for (int l = 0; l < q.num_levels(); ++l) {
    total += static_cast<int>(q.sentinel_set(l).size());
  }
  EXPECT_EQ(total, 10);
  EXPECT_LE(q.num_levels(), 4);
}

TEST(QuadtreeTest, SingleNode) {
  Topology t = MakeGridTopology(1, 1);
  const auto q = QuadtreeDecomposition::Build(t);
  EXPECT_EQ(q.num_levels(), 1);
  EXPECT_EQ(q.root(), 0);
  EXPECT_TRUE(q.quad_children(0).empty());
}

}  // namespace
}  // namespace elink
