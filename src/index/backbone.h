// Inter-cluster leader backbone (paper Section 7.2).
//
// A spanning tree over the cluster leaders — two leaders are adjacent when
// their clusters share a communication-graph edge — used to route queries to
// every cluster root.  Backbone links are logical: a message between two
// leaders travels the shortest communication-graph path between them, and is
// charged per hop.  The construction cost (boundary discovery plus the tree
// agreement wave) is recorded so it can be accounted into the clustering
// cost as Section 8.2 prescribes.
//
// Queries only ever cross tree edges, so the backbone keeps one hop count
// per leader (to its tree parent), each found by a BFS from the leader that
// stops at the parent.  Every table is indexed by node id: a backbone holds
// O(N) memory whatever the number of leaders.
#ifndef ELINK_INDEX_BACKBONE_H_
#define ELINK_INDEX_BACKBONE_H_

#include <span>
#include <vector>

#include "cluster/clustering.h"
#include "common/status.h"
#include "metric/distance.h"
#include "sim/stats.h"

namespace elink {

class ClusterIndex;

/// \brief The leader backbone of a clustering.
class Backbone {
 public:
  /// Builds the backbone over an undirected communication graph.
  /// Construction messages go to `build_stats` (category "backbone_build")
  /// when non-null.
  ///
  /// When `features`/`metric` are supplied, the spanning tree over the
  /// cluster-adjacency graph is chosen by Prim's algorithm on leader feature
  /// distances, rooted at the leader medoid: feature-similar clusters group
  /// into the same backbone subtree, which is what makes the upper-level
  /// covering-radius pruning of the query engines effective.  Ties between
  /// equal weights go to the smaller joining leader, then the smaller tree
  /// leader.  Without features the tree is a plain BFS tree (hop-oriented).
  static Backbone Build(const Clustering& clustering,
                        const AdjacencyList& adjacency,
                        MessageStats* build_stats = nullptr,
                        const std::vector<Feature>* features = nullptr,
                        const DistanceMetric* metric = nullptr);

  /// All cluster leaders, ascending.
  const std::vector<int>& leaders() const { return leaders_; }

  /// All cluster leaders, children before parents: by decreasing depth in
  /// the backbone tree, ties by ascending id.  The order in which the query
  /// engines and protocols aggregate upper-level summaries bottom-up.
  const std::vector<int>& leaders_bottom_up() const {
    return leaders_bottom_up_;
  }

  /// Parent of a leader in the backbone tree (the tree root's parent is
  /// itself).  Only valid for leader ids.
  int tree_parent(int leader) const {
    CheckLeader(leader);
    return tree_parent_[leader];
  }

  /// Children of a leader in the backbone tree, ascending.
  const std::vector<int>& tree_children(int leader) const {
    CheckLeader(leader);
    return tree_children_[leader];
  }

  /// The leader whose cluster graph BFS rooted the tree.
  int tree_root() const { return tree_root_; }

  /// Communication-graph hop distance between a leader and its tree parent:
  /// how many transmissions one traversal of that backbone link costs, in
  /// either direction.  Always positive except for the tree root (0).
  /// Only valid for leader ids.
  int parent_hops(int leader) const {
    CheckLeader(leader);
    return parent_hops_[leader];
  }

  /// Sum of parent_hops over all leaders (independent point-to-point legs
  /// between tree-adjacent leaders).
  int total_tree_hops() const { return total_tree_hops_; }

  /// Transmissions needed to deliver one message to *every* leader by
  /// flooding the communication-graph spanning tree pruned to the branches
  /// that contain leaders (a Steiner-tree approximation of the backbone
  /// overlay).  Shared path prefixes are paid once, so this is at most
  /// N - 1 — a query over the backbone never costs more than TAG's
  /// network-wide tree — and far less when clusters are few.
  int flood_hops() const { return flood_hops_; }

 private:
  Backbone() = default;

  void CheckLeader(int leader) const {
    ELINK_CHECK(leader >= 0 &&
                leader < static_cast<int>(tree_parent_.size()) &&
                tree_parent_[leader] >= 0);
  }

  std::vector<int> leaders_;
  std::vector<int> leaders_bottom_up_;
  // Indexed by node id; tree_parent_ is -1 for nodes that lead no cluster.
  std::vector<int> tree_parent_;
  std::vector<std::vector<int>> tree_children_;
  std::vector<int> parent_hops_;
  int tree_root_ = -1;
  int total_tree_hops_ = 0;
  int flood_hops_ = 0;
};

/// \brief The members of every leader's backbone subtree, in O(N) memory.
///
/// A leader's backbone subtree holds its own cluster (the leader's M-tree
/// subtree in the index) and the clusters of every leader below it.  The
/// clusters are laid out once, in DFS preorder of the backbone tree, so each
/// leader's members are one contiguous span of that order, whatever the
/// depth of the tree.  The query engines and the path protocol use it to
/// settle a whole backbone subtree at once.
class BackboneMembers {
 public:
  BackboneMembers(const Backbone& backbone, const ClusterIndex& index);

  /// Every node of `leader`'s backbone subtree, in DFS order (not sorted).
  /// Only valid for leader ids.
  std::span<const int> of(int leader) const {
    ELINK_CHECK(leader >= 0 && leader < static_cast<int>(begin_.size()) &&
                begin_[leader] >= 0);
    return std::span<const int>(order_).subspan(
        static_cast<size_t>(begin_[leader]),
        static_cast<size_t>(end_[leader] - begin_[leader]));
  }

 private:
  std::vector<int> order_;
  // Indexed by node id: the span [begin_, end_) of a leader in order_;
  // begin_ is -1 for nodes that lead no cluster.
  std::vector<int> begin_;
  std::vector<int> end_;
};

}  // namespace elink

#endif  // ELINK_INDEX_BACKBONE_H_
