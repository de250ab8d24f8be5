// Graph utilities over adjacency lists: BFS distances/trees, connectivity,
// connected components (optionally restricted to a node subset), and
// multi-hop route extraction.  Shared by the clustering algorithms, the
// index/query layer, and the cost accounting of the baselines.
#ifndef ELINK_SIM_GRAPH_H_
#define ELINK_SIM_GRAPH_H_

#include <vector>

#include "common/status.h"

namespace elink {

using AdjacencyList = std::vector<std::vector<int>>;

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

/// Shortest hop path from `src` to `dst` (inclusive of both endpoints);
/// empty when unreachable.
std::vector<int> ShortestHopPath(const AdjacencyList& adj, int src, int dst);

}  // namespace elink

#endif  // ELINK_SIM_GRAPH_H_
