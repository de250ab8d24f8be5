// Graph utilities over adjacency lists: one reusable breadth-first search
// (Bfs) and the BFS distances/trees, connectivity, connected components
// (optionally restricted to a node subset) and shortest hop paths built on
// it.  Shared by the simulator's routing, the clustering algorithms, the
// index/query layer, and the cost accounting of the baselines.
#ifndef ELINK_SIM_GRAPH_H_
#define ELINK_SIM_GRAPH_H_

#include <cstdint>
#include <vector>

#include "common/status.h"

namespace elink {

using AdjacencyList = std::vector<std::vector<int>>;

/// Breadth-first search over O(N) scratch that is reused across searches:
/// every search stamps the nodes it sees with a fresh epoch, so starting one
/// costs O(1), not O(N).  Neighbours are visited in adjacency order and the
/// frontier is FIFO, so parents, paths and hop counts are those of the
/// textbook search; a search cut short by `stop` leaves the parents and hops
/// of every node it reached exactly as the full search would.
class Bfs {
 public:
  /// Scratch for graphs of up to `num_nodes` nodes.  The discovery order is
  /// reserved up front and never reallocates.
  explicit Bfs(int num_nodes)
      : stamp_(num_nodes, 0), parent_(num_nodes), hops_(num_nodes) {
    order_.reserve(num_nodes);
  }

  /// Searches from `src`, which is always reached.  Every other node is
  /// offered to `admit(v)` once per search, when it is first seen; only
  /// admitted nodes are reached and expanded.  Returns the first reached
  /// node for which `stop(v)` holds (`src` is tested first), ending the
  /// search there, or -1 when the search runs out.
  template <class Admit, class Stop>
  int Run(const AdjacencyList& adj, int src, Admit&& admit, Stop&& stop) {
    const uint64_t epoch = ++epoch_;
    order_.clear();
    stamp_[src] = epoch;
    parent_[src] = src;
    hops_[src] = 0;
    order_.push_back(src);
    if (stop(src)) return src;
    for (size_t head = 0; head < order_.size(); ++head) {
      const int u = order_[head];
      for (int v : adj[u]) {
        if (stamp_[v] == epoch) continue;
        stamp_[v] = epoch;
        if (!admit(v)) {
          parent_[v] = -1;  // Seen and refused: not reached.
          continue;
        }
        parent_[v] = u;
        hops_[v] = hops_[u] + 1;
        order_.push_back(v);
        if (stop(v)) return v;
      }
    }
    return -1;
  }

  /// Run with no stop: reaches every admitted node connected to `src`.
  template <class Admit>
  void Flood(const AdjacencyList& adj, int src, Admit&& admit) {
    Run(adj, src, admit, [](int) { return false; });
  }
  /// Flood over the whole graph.
  void Flood(const AdjacencyList& adj, int src) {
    Flood(adj, src, [](int) { return true; });
  }

  /// Queries about the last search.
  bool reached(int v) const {
    return stamp_[v] == epoch_ && parent_[v] >= 0;
  }
  /// BFS tree parent; the source is its own parent, unreached nodes get -1.
  int parent(int v) const { return reached(v) ? parent_[v] : -1; }
  /// Hops from the source; unreached nodes get -1.
  int hops(int v) const { return reached(v) ? hops_[v] : -1; }
  /// Reached nodes in discovery order, the source first.
  const std::vector<int>& order() const { return order_; }
  /// Tree path from the source to `v`, both inclusive; empty when `v` was
  /// not reached.
  std::vector<int> PathTo(int v) const {
    if (!reached(v)) return {};
    std::vector<int> path(hops_[v] + 1);
    for (size_t i = path.size(); i-- > 0; v = parent_[v]) path[i] = v;
    return path;
  }

 private:
  std::vector<uint64_t> stamp_;  // stamp_[v] == epoch_: seen by the search.
  std::vector<int> parent_;      // -1 for a seen node `admit` refused.
  std::vector<int> hops_;
  std::vector<int> order_;
  uint64_t epoch_ = 0;
};

/// Hop distances from `src` to every node; unreachable nodes get -1.
std::vector<int> HopDistancesFrom(const AdjacencyList& adj, int src);

/// BFS tree parents rooted at `src`: parent[src] = src, unreachable = -1.
std::vector<int> BfsTreeParents(const AdjacencyList& adj, int src);

/// True when the whole graph is connected (empty graphs count as connected).
bool IsConnected(const AdjacencyList& adj);

/// Connected components over the full node set; returns component id per
/// node, ids are dense starting at 0 in discovery order.
std::vector<int> ConnectedComponents(const AdjacencyList& adj);

/// Connected components of the subgraph induced by `members` (a 0/1 mask of
/// size adj.size()).  Nodes outside the mask get component -1.
std::vector<int> InducedComponents(const AdjacencyList& adj,
                                   const std::vector<char>& members);

/// True when the subgraph induced by the masked nodes is connected (an empty
/// mask counts as connected).
bool IsInducedConnected(const AdjacencyList& adj,
                        const std::vector<char>& members);

/// Shortest hop path from `src` to `dst` through nodes `admit` accepts
/// (`src` itself is never asked), inclusive of both endpoints; empty when
/// unreachable.
template <class Admit>
std::vector<int> ShortestHopPath(const AdjacencyList& adj, int src, int dst,
                                 Admit&& admit) {
  Bfs bfs(static_cast<int>(adj.size()));
  bfs.Run(adj, src, admit, [dst](int v) { return v == dst; });
  return bfs.PathTo(dst);
}

/// Shortest hop path from `src` to `dst` over the whole graph.
std::vector<int> ShortestHopPath(const AdjacencyList& adj, int src, int dst);

}  // namespace elink

#endif  // ELINK_SIM_GRAPH_H_
