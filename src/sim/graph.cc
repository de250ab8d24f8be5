#include "sim/graph.h"

#include <algorithm>
#include <deque>

namespace elink {

std::vector<int> HopDistancesFrom(const AdjacencyList& adj, int src) {
  std::vector<int> dist(adj.size(), -1);
  std::deque<int> queue;
  dist[src] = 0;
  queue.push_back(src);
  while (!queue.empty()) {
    const int u = queue.front();
    queue.pop_front();
    for (int v : adj[u]) {
      if (dist[v] < 0) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return dist;
}

std::vector<int> BfsTreeParents(const AdjacencyList& adj, int src) {
  std::vector<int> parent(adj.size(), -1);
  std::deque<int> queue;
  parent[src] = src;
  queue.push_back(src);
  while (!queue.empty()) {
    const int u = queue.front();
    queue.pop_front();
    for (int v : adj[u]) {
      if (parent[v] < 0) {
        parent[v] = u;
        queue.push_back(v);
      }
    }
  }
  return parent;
}

bool IsConnected(const AdjacencyList& adj) {
  if (adj.empty()) return true;
  const std::vector<int> dist = HopDistancesFrom(adj, 0);
  return std::none_of(dist.begin(), dist.end(),
                      [](int d) { return d < 0; });
}

std::vector<int> ConnectedComponents(const AdjacencyList& adj) {
  return InducedComponents(adj, std::vector<char>(adj.size(), 1));
}

std::vector<int> InducedComponents(const AdjacencyList& adj,
                                   const std::vector<char>& members) {
  std::vector<int> comp(adj.size(), -1);
  int next = 0;
  for (size_t start = 0; start < adj.size(); ++start) {
    if (!members[start] || comp[start] >= 0) continue;
    const int id = next++;
    std::deque<int> queue{static_cast<int>(start)};
    comp[start] = id;
    while (!queue.empty()) {
      const int u = queue.front();
      queue.pop_front();
      for (int v : adj[u]) {
        if (members[v] && comp[v] < 0) {
          comp[v] = id;
          queue.push_back(v);
        }
      }
    }
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
  const std::vector<int> parent = BfsTreeParents(adj, src);
  if (parent[dst] < 0) return {};
  std::vector<int> path;
  for (int cur = dst; cur != src; cur = parent[cur]) path.push_back(cur);
  path.push_back(src);
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace elink
