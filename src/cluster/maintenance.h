// Slack-parameterized dynamic cluster maintenance (paper Section 6).
//
// After the initial clustering (built against an effective threshold
// delta - 2*Delta), feature updates are absorbed locally whenever one of the
// paper's three conditions holds:
//   A1: d(F_i, F'_i) <= Delta
//   A2: d(F'_i, F_ri) - d(F_i, F_ri) <= Delta
//   A3: d(F'_i, F_ri) <= delta - Delta
// where F_i is the node's feature at its last verification and F_ri its
// stored copy of the root feature.  Only when all three fail does the node
// walk the cluster tree to fetch the current root feature and, if
// d(F'_i, F'_ri) > delta, detach (merging with a neighboring cluster or
// becoming a singleton).  The root symmetrically pushes its own feature down
// the tree when it drifts by more than Delta.
//
// The maintained invariant is d(F_i, F_root) <= delta for every member —
// the slack trades the initial clustering's pairwise delta-compactness for
// communication, exactly the trade-off Figs. 10-11 quantify.
#ifndef ELINK_CLUSTER_MAINTENANCE_H_
#define ELINK_CLUSTER_MAINTENANCE_H_

#include <vector>

#include "cluster/clustering.h"
#include "common/status.h"
#include "metric/distance.h"
#include "sim/stats.h"
#include "sim/topology.h"

namespace elink {

/// Tunables of the maintenance protocol.
struct MaintenanceConfig {
  /// The clustering threshold delta of Definition 1.
  double delta = 1.0;
  /// The slack Delta of Section 6 (0 disables local absorption).
  double slack = 0.0;
  /// A detached node merges with a neighbor's cluster when its distance to
  /// that cluster's root feature is at most merge_fraction * delta.  The
  /// paper's text uses delta itself (merge_fraction = 1), which maintains
  /// the root-distance invariant; 0.5 preserves full pairwise compactness.
  double merge_fraction = 1.0;
};

/// \brief Replays feature updates against a clustering, applying the
/// Section 6 protocol and accounting every message it would transmit.
class MaintenanceSession {
 public:
  /// `clustering` is the initial (slack-adjusted) delta-clustering;
  /// `features` are the per-node features it was built on.
  MaintenanceSession(const Topology& topology, const Clustering& clustering,
                     std::vector<Feature> features,
                     std::shared_ptr<const DistanceMetric> metric,
                     const MaintenanceConfig& config);

  /// Applies node `node`'s feature update.  Runs A1-A3, escalating to the
  /// root / detaching / re-merging as required, and records the messages.
  void UpdateFeature(int node, const Feature& updated);

  /// Current clustering (reflecting detaches and merges).
  const Clustering& clustering() const { return clustering_; }

  /// Current feature of each node (latest update applied).
  const std::vector<Feature>& current_features() const { return current_; }

  /// Message ledger: categories update_escalate, update_root_push,
  /// update_merge_probe.
  const MessageStats& stats() const { return stats_; }

  /// Number of detach events (cluster quality degradations) so far.
  int detaches() const { return detaches_; }
  /// Updates absorbed with no communication (some A-condition held).
  long long silent_updates() const { return silent_updates_; }

  /// Verifies the maintained invariant: every node's *current* feature is
  /// within `bound` of its cluster root's announced feature.  The protocol
  /// guarantees bound = delta.
  Status ValidateRootDistanceInvariant(double bound) const;

 private:
  int TreeHopsToRoot(int node) const;
  void DetachAndRelocate(int node);
  void HandleRootUpdate(int root);
  void RepairClusterAround(int old_root);
  /// `node` accepted a new stored root feature and stays.  The A1/A2
  /// shortcuts are sound only while verified_[node] lies within delta of
  /// that feature; when it no longer does, the current feature becomes the
  /// verified one.
  void RebaseVerified(int node);

  const Topology& topology_;
  Clustering clustering_;
  std::shared_ptr<const DistanceMetric> metric_;
  MaintenanceConfig config_;

  std::vector<Feature> current_;    // Latest feature per node.
  std::vector<Feature> verified_;   // F_i at last verification.
  std::vector<Feature> stored_root_;  // Node's copy of its root's feature.
  std::vector<Feature> announced_;  // Per root: last feature pushed down.

  MessageStats stats_;
  int detaches_ = 0;
  long long silent_updates_ = 0;
};

}  // namespace elink

#endif  // ELINK_CLUSTER_MAINTENANCE_H_
