#include "index/backbone.h"

#include <algorithm>
#include <functional>
#include <queue>
#include <string>
#include <tuple>
#include <utility>

#include "index/mtree.h"
#include "sim/graph.h"

namespace elink {

Backbone Backbone::Build(const Clustering& clustering,
                         const AdjacencyList& adjacency,
                         MessageStats* build_stats,
                         const std::vector<Feature>* features,
                         const DistanceMetric* metric) {
  Backbone bb;
  const int n = static_cast<int>(adjacency.size());
  const std::string kCategory = "backbone_build";

  bb.tree_parent_.assign(n, -1);
  bb.tree_children_.resize(n);
  bb.parent_hops_.assign(n, 0);
  std::vector<char> is_leader(n, 0);
  for (int i = 0; i < n; ++i) is_leader[clustering.root_of[i]] = 1;
  for (int i = 0; i < n; ++i) {
    if (is_leader[i]) bb.leaders_.push_back(i);
  }

  // Cluster-level adjacency from boundary edges, as sorted, de-duplicated
  // neighbour lists indexed by leader id.  Discovery accounting: each pair
  // of adjacent clusters exchanges leader ids once, one message per
  // direction, so one per directed link.
  std::vector<std::pair<int, int>> links;
  for (int u = 0; u < n; ++u) {
    for (int v : adjacency[u]) {
      if (u > v) continue;
      const int ru = clustering.root_of[u];
      const int rv = clustering.root_of[v];
      if (ru == rv) continue;
      links.emplace_back(ru, rv);
      links.emplace_back(rv, ru);
    }
  }
  std::sort(links.begin(), links.end());
  links.erase(std::unique(links.begin(), links.end()), links.end());
  std::vector<std::vector<int>> cluster_adj(n);
  for (const auto& [a, b] : links) cluster_adj[a].push_back(b);
  if (build_stats != nullptr) {
    for (size_t k = 0; k < links.size(); ++k) {
      build_stats->Record(kCategory, 1);
    }
  }

  // One search's scratch serves every BFS below.
  Bfs bfs(n);
  if (features != nullptr && metric != nullptr && bb.leaders_.size() > 1) {
    // Feature-aware tree: root at the leader medoid, then Prim's algorithm
    // with leader feature distances as weights, so feature-similar clusters
    // land in the same subtree.  A candidate is dropped as soon as its
    // eccentricity reaches the best one; only a strictly smaller one wins.
    int root = bb.leaders_.front();
    double best_ecc = 1e300;
    for (int cand : bb.leaders_) {
      double ecc = 0.0;
      for (int other : bb.leaders_) {
        ecc = std::max(
            ecc, metric->Distance((*features)[cand], (*features)[other]));
        if (ecc >= best_ecc) break;
      }
      if (ecc < best_ecc) {
        best_ecc = ecc;
        root = cand;
      }
    }
    bb.tree_root_ = root;
    bb.tree_parent_[root] = root;
    std::vector<char> in_tree(n, 0);
    // Lazy min-heap of crossing edges (weight, joining leader, tree leader):
    // the cheapest edge to an outside leader, ties to the smaller joining
    // then the smaller tree leader.
    using Edge = std::tuple<double, int, int>;
    std::priority_queue<Edge, std::vector<Edge>, std::greater<Edge>> heap;
    auto join = [&](int in) {
      in_tree[in] = 1;
      for (int out : cluster_adj[in]) {
        if (in_tree[out]) continue;
        heap.emplace(metric->Distance((*features)[in], (*features)[out]), out,
                     in);
      }
    };
    join(root);
    for (size_t joined = 1; joined < bb.leaders_.size(); ++joined) {
      while (!heap.empty() && in_tree[std::get<1>(heap.top())]) heap.pop();
      ELINK_CHECK(!heap.empty());  // Cluster graph is connected.
      const auto [w, to, from] = heap.top();
      heap.pop();
      bb.tree_parent_[to] = from;
      bb.tree_children_[from].push_back(to);
      join(to);
    }
    for (int leader : bb.leaders_) {
      std::sort(bb.tree_children_[leader].begin(),
                bb.tree_children_[leader].end());
    }
  } else {
    // BFS spanning tree over the cluster graph from the smallest leader id.
    bb.tree_root_ = bb.leaders_.front();
    bfs.Flood(cluster_adj, bb.tree_root_);
    for (int leader : bfs.order()) {
      const int parent = bfs.parent(leader);
      bb.tree_parent_[leader] = parent;
      if (parent != leader) bb.tree_children_[parent].push_back(leader);
    }
    // A connected communication graph yields a connected cluster graph.
    ELINK_CHECK(bfs.order().size() == bb.leaders_.size());
  }

  // Bottom-up order: depths from the root down the tree, then deepest
  // first, ties by id.
  bfs.Flood(bb.tree_children_, bb.tree_root_);
  bb.leaders_bottom_up_ = bb.leaders_;
  std::sort(bb.leaders_bottom_up_.begin(), bb.leaders_bottom_up_.end(),
            [&](int a, int b) {
              if (bfs.hops(a) != bfs.hops(b)) return bfs.hops(a) > bfs.hops(b);
              return a < b;
            });

  // Hops of every tree edge: a BFS from the leader that stops once it
  // discovers its parent.
  for (int leader : bb.leaders_) {
    const int parent = bb.tree_parent_[leader];
    if (parent == leader) continue;
    const int found = bfs.Run(adjacency, leader, [](int) { return true; },
                              [parent](int v) { return v == parent; });
    ELINK_CHECK(found == parent);
    const int hops = bfs.hops(parent);
    bb.parent_hops_[leader] = hops;
    bb.total_tree_hops_ += hops;
    if (build_stats != nullptr) {
      // Tree agreement: each leader notifies its chosen parent.
      for (int h = 0; h < hops; ++h) build_stats->Record(kCategory, 1);
    }
  }

  // Steiner flood structure: the communication-graph BFS tree rooted at the
  // backbone root, pruned to the union of root-to-leader paths.  Shared
  // prefixes are a single branch, so one flood reaches every leader in
  // (marked nodes - 1) transmissions.
  bfs.Flood(adjacency, bb.tree_root_);
  std::vector<char> marked(n, 0);
  int num_marked = 0;
  for (int leader : bb.leaders_) {
    for (int cur = leader; !marked[cur]; cur = bfs.parent(cur)) {
      marked[cur] = 1;
      ++num_marked;
      if (cur == bb.tree_root_) break;
    }
  }
  bb.flood_hops_ = num_marked - 1;
  return bb;
}

BackboneMembers::BackboneMembers(const Backbone& backbone,
                                 const ClusterIndex& index) {
  const int n = index.num_nodes();
  begin_.assign(n, -1);
  end_.assign(n, -1);
  order_.reserve(n);
  // Preorder walk with an explicit stack of (leader, next child position):
  // Prim backbones can be hundreds of leaders deep.
  std::vector<std::pair<int, size_t>> stack;
  auto enter = [&](int leader) {
    begin_[leader] = static_cast<int>(order_.size());
    const std::vector<int>& own = index.subtree(leader);
    order_.insert(order_.end(), own.begin(), own.end());
    stack.emplace_back(leader, 0);
  };
  enter(backbone.tree_root());
  while (!stack.empty()) {
    auto& [leader, next] = stack.back();
    const std::vector<int>& children = backbone.tree_children(leader);
    if (next < children.size()) {
      // `enter` may grow the stack: `leader` and `next` are dead after it.
      enter(children[next++]);
    } else {
      end_[leader] = static_cast<int>(order_.size());
      stack.pop_back();
    }
  }
}

}  // namespace elink
