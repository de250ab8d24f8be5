#include "sim/topology.h"

#include <algorithm>
#include <cmath>

#include "sim/graph.h"

namespace elink {

bool Topology::HasEdge(int u, int v) const {
  const auto& nb = adjacency[u];
  return std::binary_search(nb.begin(), nb.end(), v);
}

int Topology::num_edges() const {
  size_t twice = 0;
  for (const auto& nb : adjacency) twice += nb.size();
  return static_cast<int>(twice / 2);
}

double Topology::average_degree() const {
  if (positions.empty()) return 0.0;
  return 2.0 * num_edges() / static_cast<double>(positions.size());
}

int Topology::max_degree() const {
  size_t d = 0;
  for (const auto& nb : adjacency) d = std::max(d, nb.size());
  return static_cast<int>(d);
}

Topology MakeGridTopology(int rows, int cols, double spacing) {
  ELINK_CHECK(rows > 0 && cols > 0 && spacing > 0);
  Topology t;
  t.width = (cols - 1) * spacing;
  t.height = (rows - 1) * spacing;
  t.positions.resize(static_cast<size_t>(rows) * cols);
  t.adjacency.resize(t.positions.size());
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const int id = r * cols + c;
      t.positions[id] = {c * spacing, r * spacing};
      if (r > 0) t.adjacency[id].push_back(id - cols);
      if (c > 0) t.adjacency[id].push_back(id - 1);
      if (c + 1 < cols) t.adjacency[id].push_back(id + 1);
      if (r + 1 < rows) t.adjacency[id].push_back(id + cols);
    }
  }
  for (auto& nb : t.adjacency) std::sort(nb.begin(), nb.end());
  return t;
}

std::vector<std::vector<int>> BuildDiskAdjacency(
    const std::vector<Point2D>& pts, double range) {
  ELINK_CHECK(range > 0.0);
  const int n = static_cast<int>(pts.size());
  std::vector<std::vector<int>> adj(n);
  if (n == 0) return adj;
  Point2D lo = pts[0], hi = pts[0];
  for (const Point2D& p : pts) {
    lo = {std::min(lo.x, p.x), std::min(lo.y, p.y)};
    hi = {std::max(hi.x, p.x), std::max(hi.y, p.y)};
  }
  // Cells at least `range` wide put every in-range pair in adjacent cells
  // (the 1e-9 slack absorbs quotient rounding for pairs exactly `range`
  // apart); at most ~sqrt(n) cells per axis keep the grid O(n).
  const double cap = std::floor(std::sqrt(static_cast<double>(n))) + 1.0;
  const double cell = std::max(
      {range * (1.0 + 1e-9), (hi.x - lo.x) / cap, (hi.y - lo.y) / cap});
  const int cols = static_cast<int>((hi.x - lo.x) / cell) + 1;
  const int rows = static_cast<int>((hi.y - lo.y) / cell) + 1;
  std::vector<std::vector<int>> cells(static_cast<size_t>(rows) * cols);
  std::vector<int> cx(n), cy(n);
  for (int i = 0; i < n; ++i) {
    cx[i] = static_cast<int>((pts[i].x - lo.x) / cell);
    cy[i] = static_cast<int>((pts[i].y - lo.y) / cell);
    cells[static_cast<size_t>(cy[i]) * cols + cx[i]].push_back(i);
  }
  for (int i = 0; i < n; ++i) {
    for (int y = std::max(0, cy[i] - 1); y <= std::min(rows - 1, cy[i] + 1);
         ++y) {
      for (int x = std::max(0, cx[i] - 1); x <= std::min(cols - 1, cx[i] + 1);
           ++x) {
        for (int j : cells[static_cast<size_t>(y) * cols + x]) {
          if (j > i && EuclideanDistance(pts[i], pts[j]) <= range) {
            adj[i].push_back(j);
            adj[j].push_back(i);
          }
        }
      }
    }
  }
  for (auto& nb : adj) std::sort(nb.begin(), nb.end());
  return adj;
}

Result<Topology> MakeRandomTopology(int n, double side, double radio_range,
                                    Rng* rng, bool force_connectivity) {
  if (n <= 0) return Status::InvalidArgument("n must be positive");
  if (side <= 0 || radio_range <= 0) {
    return Status::InvalidArgument("side and radio_range must be positive");
  }
  ELINK_CHECK(rng != nullptr);
  Topology t;
  t.width = side;
  t.height = side;
  t.positions.resize(n);
  for (auto& p : t.positions) {
    p = {rng->Uniform(0, side), rng->Uniform(0, side)};
  }
  double range = radio_range;
  t.adjacency = BuildDiskAdjacency(t.positions, range);
  if (force_connectivity) {
    // Grow the range until the unit-disk graph is connected.  The diagonal
    // of the region is a hard upper bound, so this always terminates.
    const double max_range = std::sqrt(2.0) * side + 1.0;
    while (!IsConnected(t.adjacency) && range < max_range) {
      range *= 1.1;
      t.adjacency = BuildDiskAdjacency(t.positions, range);
    }
    if (!IsConnected(t.adjacency)) {
      return Status::Internal("failed to connect random topology");
    }
  }
  return t;
}

Result<Topology> MakeRandomTopologyWithDegree(int n, double density,
                                              double target_avg_degree,
                                              Rng* rng) {
  if (density <= 0 || target_avg_degree <= 0) {
    return Status::InvalidArgument("density and degree must be positive");
  }
  const double side = std::sqrt(n / density);
  // For a Poisson process of intensity `density`, the expected number of
  // neighbors within radius r is density * pi * r^2; invert for r.
  const double range =
      std::sqrt(target_avg_degree / (density * M_PI));
  return MakeRandomTopology(n, side, range, rng, /*force_connectivity=*/true);
}

}  // namespace elink
