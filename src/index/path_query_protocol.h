// A fully distributed, message-passing execution of the Section-7.3 path
// query, run inside the discrete-event simulator on the proto runtime.
//
// PathQueryEngine (path_query.h) is the centralized accounting model; here
// every classification step is a real protocol action: the query routes hop
// by hop from the source to its cluster root, up the leader chain to the
// backbone root, and is then disseminated selectively down the backbone —
// pruned subtrees cost nothing, inconclusive leaders drill their cluster's
// M-tree with per-edge messages, and completion acks aggregate back up.
// The safe-region search that follows classification runs on the assembled
// safe map at cluster granularity, exactly like the engine.  Tests replay
// identical queries through both implementations and check that outcomes
// and per-category costs agree.
#ifndef ELINK_INDEX_PATH_QUERY_PROTOCOL_H_
#define ELINK_INDEX_PATH_QUERY_PROTOCOL_H_

#include <memory>
#include <span>
#include <vector>

#include "cluster/clustering.h"
#include "common/status.h"
#include "index/backbone.h"
#include "index/mtree.h"
#include "index/path_query.h"
#include "metric/distance.h"
#include "proto/node.h"
#include "sim/churn.h"
#include "sim/fault.h"
#include "sim/network.h"
#include "sim/observer.h"
#include "sim/topology.h"

namespace elink {

/// Network/run options of the distributed path-query protocol.
struct PathProtocolOptions {
  bool synchronous = true;
  uint64_t seed = 1;
  /// Message-level fault plan (loss, truncation, ...); inert by default.
  FaultPlan fault;
  /// Topology dynamics (sim/churn.h); inert by default.  Churn degrades a
  /// query into a (counted) failed one, never into a wrong answer.
  ChurnPlan churn;
  /// Read-only observer (telemetry/tracer) bound to every Run's network.
  /// Not owned; attaching never changes the query's outcome.
  SimObserver* observer = nullptr;
  /// Route memo lent to every Run's network instead of the object's own
  /// (see Network::Config::route_memo): borrowed, it must outlive the object
  /// and cover the same topology.  Null uses the object's own memo.
  RouteMemo* route_memo = nullptr;
};

/// \brief Executes path queries as a distributed protocol.
class DistributedPathQuery {
 public:
  DistributedPathQuery(const Topology& topology, const Clustering& clustering,
                       const ClusterIndex& index, const Backbone& backbone,
                       const std::vector<Feature>& features,
                       std::shared_ptr<const DistanceMetric> metric,
                       PathProtocolOptions options = {});

  // Leader states point into this object's backbone_members_, and memo_ may
  // point at own_memo_; a copy would share both with the original.
  DistributedPathQuery(const DistributedPathQuery&) = delete;
  DistributedPathQuery& operator=(const DistributedPathQuery&) = delete;

  /// Finds a safe path from `source` to `destination` avoiding `danger` by
  /// at least `gamma`.  Outcome semantics match PathQueryEngine::Query; the
  /// returned stats additionally carry the protocol's completion acks under
  /// "path_collect".
  Result<PathQueryResult> Run(int source, int destination,
                              const Feature& danger, double gamma);

  ~DistributedPathQuery();

  /// Routes every Run has memoized so far over the shared topology (the
  /// lent memo when the options carry one).
  const RouteMemo& route_memo() const { return *memo_; }

  /// One node's slice of the deployment (defined in path_query_protocol.cc).
  struct NodeState;

 private:
  const Topology& topology_;
  const Clustering& clustering_;
  const Backbone& backbone_;
  std::shared_ptr<const DistanceMetric> metric_;
  PathProtocolOptions options_;
  /// All member nodes of each leader's backbone subtree.
  BackboneMembers backbone_members_;
  /// Built once at construction; every Run installs nodes that point into
  /// it.  Leader entries point into backbone_members_.
  std::vector<NodeState> states_;
  /// Lent to every Run's Network (see DistributedRangeQuery): `memo_` is
  /// options_.route_memo, else &own_memo_.
  RouteMemo own_memo_;
  RouteMemo* memo_;
};

/// A path-query protocol node over empty per-node state whose rejected
/// frames go to `on_bad` (see proto::DispatchProbe), for tests of the node
/// class's dispatch.  Deliver it only frames that Dispatch must reject.
std::unique_ptr<proto::ProtocolNode> NewPathQueryDispatchProbe(
    proto::BadMessageFn on_bad);

}  // namespace elink

#endif  // ELINK_INDEX_PATH_QUERY_PROTOCOL_H_
