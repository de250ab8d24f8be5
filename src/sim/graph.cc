#include "sim/graph.h"

#include <algorithm>

namespace elink {

std::vector<int> HopDistancesFrom(const AdjacencyList& adj, int src) {
  Bfs bfs(static_cast<int>(adj.size()));
  bfs.Flood(adj, src);
  std::vector<int> dist(adj.size(), -1);
  for (int v : bfs.order()) dist[v] = bfs.hops(v);
  return dist;
}

std::vector<int> BfsTreeParents(const AdjacencyList& adj, int src) {
  Bfs bfs(static_cast<int>(adj.size()));
  bfs.Flood(adj, src);
  std::vector<int> parent(adj.size(), -1);
  for (int v : bfs.order()) parent[v] = bfs.parent(v);
  return parent;
}

bool IsConnected(const AdjacencyList& adj) {
  if (adj.empty()) return true;
  Bfs bfs(static_cast<int>(adj.size()));
  bfs.Flood(adj, 0);
  return bfs.order().size() == adj.size();
}

std::vector<int> ConnectedComponents(const AdjacencyList& adj) {
  return InducedComponents(adj, std::vector<char>(adj.size(), 1));
}

std::vector<int> InducedComponents(const AdjacencyList& adj,
                                   const std::vector<char>& members) {
  const int n = static_cast<int>(adj.size());
  std::vector<int> comp(n, -1);
  Bfs bfs(n);
  int next = 0;
  for (int start = 0; start < n; ++start) {
    if (!members[start] || comp[start] >= 0) continue;
    bfs.Flood(adj, start, [&](int v) { return members[v] != 0; });
    for (int v : bfs.order()) comp[v] = next;
    ++next;
  }
  return comp;
}

bool IsInducedConnected(const AdjacencyList& adj,
                        const std::vector<char>& members) {
  const std::vector<int> comp = InducedComponents(adj, members);
  int max_comp = -1;
  for (size_t i = 0; i < adj.size(); ++i) {
    if (members[i]) max_comp = std::max(max_comp, comp[i]);
  }
  return max_comp <= 0;
}

std::vector<int> ShortestHopPath(const AdjacencyList& adj, int src, int dst) {
  return ShortestHopPath(adj, src, dst, [](int) { return true; });
}

}  // namespace elink
