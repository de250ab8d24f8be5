// ELink distributed delta-clustering (paper Sections 3-5).
//
// ELink grows delta-clusters from *sentinel* nodes level by level: the
// quadtree's level-l leaders (sentinel set S_l) start expanding only after
// S_{l-1} has finished.  A node joins a cluster when its feature is within
// delta/2 of the cluster root's feature — the triangle inequality then
// guarantees pairwise delta-compactness — and may switch between same-level
// clusters at most c times when the switch improves its distance to the root
// by at least phi.
//
// Three scheduling techniques are provided:
//  * kImplicit  (Section 4): sentinel set S_l starts at precomputed time
//    T_l = sum_{j<l} t_j with t_l = kappa (1 + 1/2 + ... + 1/2^l) and
//    kappa = (1 + gamma) sqrt(N/2).  Correct on synchronous networks.
//  * kExplicit  (Section 5): sentinels are started by explicit `start`
//    messages after an ack1/ack2 completion-detection wave inside cluster
//    trees and a phase1/phase2 wave over the quadtree.  Correct on both
//    synchronous and asynchronous networks.
//  * kUnordered (Section 5, closing remark): every sentinel starts at time
//    zero.  O(sqrt(N)) time but poor quality due to cross-level contention;
//    included as an ablation.
#ifndef ELINK_CLUSTER_ELINK_H_
#define ELINK_CLUSTER_ELINK_H_

#include <memory>
#include <vector>

#include "cluster/clustering.h"
#include "cluster/quadtree.h"
#include "common/status.h"
#include "data/dataset.h"
#include "metric/distance.h"
#include "proto/node.h"
#include "sim/fault.h"
#include "sim/observer.h"
#include "sim/reliable.h"
#include "sim/stats.h"
#include "sim/topology.h"

namespace elink {

/// Scheduling technique for sentinel-set expansion.
enum class ElinkMode { kImplicit, kExplicit, kUnordered };

/// Tunables of the ELink algorithm.
struct ElinkConfig {
  /// The clustering dissimilarity threshold (Definition 1).
  double delta = 1.0;
  /// Switch-gain threshold as a fraction of delta; the paper's experiments
  /// use phi = 0.1 * delta (Section 8.4).
  double phi_fraction = 0.1;
  /// Maximum number of cluster switches per node (the paper's c; 3-5, the
  /// experiments use 4).
  int max_switches = 4;
  /// Stretch factor gamma of multi-hop paths used for the implicit timing
  /// schedule (Section 4; typically 0.2-0.4).
  double gamma = 0.3;
  /// Maintenance slack Delta (Section 6): the initial clustering is built
  /// against an effective threshold delta - 2 * slack.
  double slack = 0.0;
  /// When set, uses the literal switch condition printed in the paper's
  /// Fig. 16 (d_new < d_old + phi) instead of the prose's gain requirement
  /// (d_new + phi <= d_old).  Ablation only.
  bool literal_figure_switch_rule = false;
  /// Synchronous (unit hop delay) or asynchronous (randomized delays)
  /// network.  The implicit technique's guarantees hold only when true.
  bool synchronous = true;
  uint64_t seed = 1;

  // -- Robustness (all strictly opt-in; defaults reproduce the fault-free
  //    paper protocol byte for byte). ------------------------------------
  /// Fault model of the run: message loss, link outages, node crashes.
  FaultPlan fault;
  /// Explicit mode only: carry the expand/ack/nack/ack2 waves and the
  /// phase/start quadtree waves over ReliableChannel (ack + retransmit with
  /// bounded retries).  Retransmissions are charged under "<cat>.retx" and
  /// transport acks under "<cat>.ack".
  bool reliable_transport = false;
  /// Retransmission tuning when reliable_transport is set.
  ReliableChannel::Config reliable;
  /// Explicit mode only: when > 0, a watchdog declares the run *degraded*
  /// (instead of failing it) once no protocol event has fired for this many
  /// time units without global termination — e.g. because a sentinel or the
  /// quadtree coordinator crashed.  Pick a value larger than the full
  /// retransmit span (rto * backoff^max_retries) so in-flight recovery is
  /// never cut short.
  double completion_timeout = 0.0;

  // -- Observability (read-only; attaching never changes the run). --------
  /// When set, receives every sim event (sends, delivers, drops, timers,
  /// transport retx/acks, phase transitions, watchdog) for the run — bind a
  /// obs::RunTelemetry and/or obs::Tracer here.  Not owned.
  SimObserver* observer = nullptr;
};

/// Outcome of one ELink run.
struct ElinkResult {
  Clustering clustering;
  /// Communication ledger of the run (expand/ack/nack/phase/start).
  MessageStats stats;
  /// Simulated time at which all protocol activity ceased.
  double completion_time = 0.0;
  /// Total cluster switches performed across all nodes.
  int total_switches = 0;
  /// Clusters split by the post-run connectivity repair (Section 3.2 allows
  /// switches that can strand fragments; see RepairDisconnectedClusters).
  int repaired_fragments = 0;
  /// Number of quadtree levels (alpha + 1).
  int num_levels = 0;
  /// False when the run was cut short by the completion watchdog under fault
  /// injection; the clustering is then best-effort (crashed or unreached
  /// nodes come back as singletons).
  bool completed = true;
  /// Nodes that never obtained a cluster assignment and were emitted as
  /// singletons (0 on fault-free runs).
  int unclustered_nodes = 0;
  /// (relay, destination) entries the run's route memo held at the end
  /// (sim/network.h): the routing state explicit mode leaves behind.
  size_t route_memo_entries = 0;
};

/// Runs ELink over `topology` with per-node `features` under `metric`.
/// The returned clustering is always a valid delta-clustering (validated
/// invariants: cover, disjointness, connectivity, pairwise compactness).
Result<ElinkResult> RunElink(const Topology& topology,
                             const std::vector<Feature>& features,
                             const DistanceMetric& metric,
                             const ElinkConfig& config, ElinkMode mode);

/// Convenience overload for a SensorDataset.
Result<ElinkResult> RunElink(const SensorDataset& dataset,
                             const ElinkConfig& config, ElinkMode mode);

/// The implicit schedule's per-level expansion window t_l and start offset
/// T_l (Section 4); exposed for tests and the complexity benchmarks.
struct ImplicitSchedule {
  double kappa = 0.0;
  std::vector<double> window;  // t_l per level.
  std::vector<double> start;   // T_l per level.
};
ImplicitSchedule ComputeImplicitSchedule(int num_nodes, int num_levels,
                                         double gamma);

/// An ELink protocol node over an empty run context whose rejected frames go
/// to `on_bad` (see proto::DispatchProbe), for tests of the node class's
/// dispatch.  Deliver it only frames that Dispatch must reject.
std::unique_ptr<proto::ProtocolNode> NewElinkDispatchProbe(
    proto::BadMessageFn on_bad);

}  // namespace elink

#endif  // ELINK_CLUSTER_ELINK_H_
