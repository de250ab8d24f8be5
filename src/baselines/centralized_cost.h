// Communication cost models of the centralized baselines (Section 8.3/8.5).
//
// Two centralized variants are compared in the paper:
//  * raw:   every new measurement is forwarded to the base station
//           (the upper curve of Fig. 12);
//  * model: each node fits its model locally and transmits the coefficients
//           only when they drift beyond the slack threshold [25]
//           (the "centralized" curve of Figs. 10, 12, 13).
// Each transmission costs its payload units per hop on the shortest path to
// the base station.
#ifndef ELINK_BASELINES_CENTRALIZED_COST_H_
#define ELINK_BASELINES_CENTRALIZED_COST_H_

#include <memory>
#include <vector>

#include "metric/distance.h"
#include "sim/stats.h"
#include "sim/topology.h"

namespace elink {

/// The node nearest the deployment centroid — the conventional base-station
/// placement for centralized collection.
int PickBaseStation(const Topology& topology);

/// \brief Raw-data centralized baseline: every measurement travels to the
/// base station.
class CentralizedRawUpdater {
 public:
  CentralizedRawUpdater(const Topology& topology, int base_station);

  /// Records one raw measurement from `node` (one data value per hop).
  void Measurement(int node);

  const MessageStats& stats() const { return stats_; }

 private:
  // Hop distance of every node to the base station.
  std::vector<int> hops_to_base_;
  MessageStats stats_;
};

/// \brief Model-coefficient centralized baseline with slack: a node re-sends
/// its coefficients when they drift more than `slack` from the last value
/// the base station has (Olston-style adaptive precision [25]).
class CentralizedModelUpdater {
 public:
  CentralizedModelUpdater(const Topology& topology, int base_station,
                          std::shared_ptr<const DistanceMetric> metric,
                          double slack,
                          std::vector<Feature> initial_features);

  /// Applies a feature update at `node`; transmits if the slack is violated.
  /// Returns true when a transmission happened.
  bool UpdateFeature(int node, const Feature& updated);

  const MessageStats& stats() const { return stats_; }

  /// The base station's current view of all features (for clustering there).
  const std::vector<Feature>& base_station_view() const { return last_sent_; }

 private:
  std::vector<int> hops_to_base_;
  std::shared_ptr<const DistanceMetric> metric_;
  double slack_;
  std::vector<Feature> last_sent_;
  MessageStats stats_;
};

}  // namespace elink

#endif  // ELINK_BASELINES_CENTRALIZED_COST_H_
