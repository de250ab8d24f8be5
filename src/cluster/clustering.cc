#include "cluster/clustering.h"

#include <map>
#include <set>

#include "common/strings.h"

namespace elink {

int Clustering::num_clusters() const {
  std::set<int> roots;
  for (int r : root_of) {
    if (r >= 0) roots.insert(r);
  }
  return static_cast<int>(roots.size());
}

std::vector<std::pair<int, std::vector<int>>> Clustering::Groups() const {
  std::map<int, std::vector<int>> groups;
  for (size_t i = 0; i < root_of.size(); ++i) {
    if (root_of[i] >= 0) groups[root_of[i]].push_back(static_cast<int>(i));
  }
  return {groups.begin(), groups.end()};
}

Status ValidateDeltaClustering(const Clustering& clustering,
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
  Bfs bfs(static_cast<int>(n));
  for (const auto& [root, members] : clustering.Groups()) {
    // Connectivity of the induced subgraph: the search from the root over
    // same-cluster nodes must reach every member.
    bfs.Flood(adjacency, root,
              [&](int v) { return clustering.root_of[v] == root; });
    if (bfs.order().size() != members.size()) {
      return Status::FailedPrecondition(
          StringPrintf("cluster rooted at %d is disconnected", root));
    }
    // Pairwise delta-compactness.
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

int RepairDisconnectedClusters(Clustering* clustering,
                               const AdjacencyList& adjacency) {
  std::vector<int>& root_of = clustering->root_of;
  const int n = static_cast<int>(adjacency.size());
  // One pass over the graph, following only edges inside a cluster: every
  // search starts at the smallest unvisited member, so a component that
  // loses its cluster root is promoted to the node its search started at.
  // Roots are rewritten after all components are known, so every search
  // sees the original assignment.
  std::vector<int> start_of(n, -1);
  Bfs bfs(n);
  int created = 0;
  for (int s = 0; s < n; ++s) {
    if (root_of[s] < 0 || start_of[s] >= 0) continue;
    const int root = root_of[s];
    bfs.Flood(adjacency, s, [&](int v) { return root_of[v] == root; });
    const bool has_root = bfs.reached(root);
    if (!has_root) ++created;
    for (int m : bfs.order()) start_of[m] = has_root ? root : s;
  }
  for (int i = 0; i < n; ++i) {
    if (root_of[i] >= 0) root_of[i] = start_of[i];
  }
  return created;
}

std::vector<int> BuildClusterTrees(const Clustering& clustering,
                                   const AdjacencyList& adjacency) {
  const std::vector<int>& root_of = clustering.root_of;
  const int n = static_cast<int>(adjacency.size());
  std::vector<char> is_root(n, 0);
  for (int r : root_of) {
    if (r >= 0) is_root[r] = 1;
  }
  // BFS from each root (ascending) restricted to its cluster's members.
  // Nodes an earlier search already claimed stay with it; only an invalid
  // clustering (a root listed by another cluster) has any.
  std::vector<int> parent(n, -1);
  Bfs bfs(n);
  for (int root = 0; root < n; ++root) {
    if (!is_root[root]) continue;
    bfs.Flood(adjacency, root,
              [&](int v) { return root_of[v] == root && parent[v] < 0; });
    for (int v : bfs.order()) parent[v] = bfs.parent(v);
  }
  return parent;
}

}  // namespace elink
