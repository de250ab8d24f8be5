// A fully distributed, message-passing execution of the Section-7.2 range
// query, run inside the discrete-event simulator.
//
// RangeQueryEngine (range_query.h) computes results centrally and *accounts*
// the messages a distributed execution would need.  This module is the
// distributed execution itself: every routing decision is made by a node
// from its locally held state — its cluster-tree links, its M-tree child
// summaries, and (at leaders) its backbone children's feature/radius
// summaries — and the answer aggregates back hop by hop.  Tests verify that
// the protocol's result (match count) equals the linear scan and that its
// transmitted units agree with the engine's cost model.
//
// Query semantics are aggregate (TAG-style): the initiator learns the number
// of matching nodes.  An id-returning variant would only change the size of
// the reply payloads.
#ifndef ELINK_INDEX_QUERY_PROTOCOL_H_
#define ELINK_INDEX_QUERY_PROTOCOL_H_

#include <memory>
#include <vector>

#include "cluster/clustering.h"
#include "common/status.h"
#include "index/backbone.h"
#include "index/mtree.h"
#include "metric/distance.h"
#include "proto/node.h"
#include "sim/network.h"
#include "sim/reliable.h"

namespace elink {

/// Outcome of one distributed range query.
struct DistributedQueryOutcome {
  /// Number of nodes whose features match (within r of q).  A lower bound
  /// when `complete` is false.
  long long match_count = 0;
  /// Simulated time from injection to the initiator holding the answer.
  double latency = 0.0;
  /// All transmissions of the run (categories query_route, query_backbone,
  /// query_descend, query_collect).
  MessageStats stats;
  /// True when every probed subtree contributed before its deadline; false
  /// when the answer is partial (replies lost, subtree leaders crashed).
  bool complete = true;
  /// Subtrees (backbone children or M-tree descents) whose replies never
  /// arrived and were written off at an aggregation deadline.
  long long unreachable_subtrees = 0;
  /// False when not even a partial answer reached the initiator (e.g. the
  /// backbone root or the initiator's own cluster root is dead);
  /// match_count and latency are then meaningless.
  bool answer_received = true;
};

/// \brief Executes range queries as an actual protocol over a Network.
///
/// Construction distributes the index state to the nodes (each node holds
/// only what Section 7 says it holds); Run() then injects a query at an
/// initiator and simulates until the answer returns.
class DistributedRangeQuery {
 public:
  /// Execution environment of the queries: delay regime, faults, deadlines.
  struct ProtocolOptions {
    bool synchronous = true;
    uint64_t seed = 1;
    /// Fault model applied to every Run (sim/fault.h).  Inert by default.
    FaultPlan fault;
    /// Topology dynamics applied to every Run (sim/churn.h): nodes joining,
    /// leaving, crashing-with-repair, links appearing or vanishing.  Inert
    /// by default.  A query racing churn degrades like one racing faults
    /// (partial or absent answers), never miscounts.
    ChurnPlan churn;
    /// When > 0, every aggregation point (leader or M-tree descent node)
    /// flushes a *partial* reply after waiting this long for its children,
    /// counting the missing subtrees as unreachable.  Pick a value larger
    /// than a couple of network traversals.  0 keeps the fault-free
    /// wait-for-everything behavior.
    double node_deadline = 0.0;
    /// When > 0, Run gives up entirely at this simulated time if no answer
    /// (not even a partial one) reached the initiator.  0 disables.
    double query_deadline = 0.0;
    /// Carry every protocol message over ReliableChannel (ack + retransmit
    /// with bounded retries; see sim/reliable.h).  Lets queries survive
    /// probabilistic loss; messages routed through *crashed* relays still
    /// give up and are written off at the deadlines.
    bool reliable_transport = false;
    /// Retransmission tuning when reliable_transport is set.  rto should
    /// exceed a round trip of the longest routed leg.
    ReliableChannel::Config reliable;
    /// Read-only observer (telemetry/tracer) bound to every Run's network.
    /// Not owned; attaching never changes the query's outcome.
    SimObserver* observer = nullptr;
    /// Route memo lent to every Run's network instead of the object's own
    /// (see Network::Config::route_memo): borrowed, it must outlive the
    /// object and cover the same topology.  Null uses the object's own memo.
    RouteMemo* route_memo = nullptr;
  };

  /// `clustering`, `index`, and `backbone` describe the clustered network;
  /// each node's protocol state is built from its slice of them once, here.
  /// `topology`, `index` and `features` must outlive the object: the node
  /// states point into the latter two.
  DistributedRangeQuery(const Topology& topology,
                        const Clustering& clustering,
                        const ClusterIndex& index, const Backbone& backbone,
                        const std::vector<Feature>& features,
                        std::shared_ptr<const DistanceMetric> metric,
                        ProtocolOptions options);

  /// Back-compat convenience: fault-free options.
  DistributedRangeQuery(const Topology& topology,
                        const Clustering& clustering,
                        const ClusterIndex& index, const Backbone& backbone,
                        const std::vector<Feature>& features,
                        std::shared_ptr<const DistanceMetric> metric,
                        bool synchronous = true, uint64_t seed = 1);

  // Runs install nodes that point into states_ and lend them memo_, which
  // may point at own_memo_; a copy would share both with the original.
  DistributedRangeQuery(const DistributedRangeQuery&) = delete;
  DistributedRangeQuery& operator=(const DistributedRangeQuery&) = delete;

  /// Runs one query to completion.  Under fault injection with deadlines
  /// configured the outcome may be flagged partial (`complete == false`)
  /// instead of an error; returns Internal only for genuine protocol bugs
  /// (non-termination without a fault plan, event-cap runaway).
  Result<DistributedQueryOutcome> Run(int initiator, const Feature& q,
                                      double r);

  ~DistributedRangeQuery();

  /// Routes every Run has memoized so far over the shared topology (the
  /// lent memo when the options carry one).
  const RouteMemo& route_memo() const { return *memo_; }

  /// One node's slice of the index state (defined in query_protocol.cc).
  struct NodeState;

 private:
  const Topology& topology_;
  std::shared_ptr<const DistanceMetric> metric_;
  ProtocolOptions options_;
  // What Section 7 says each node holds, built once at construction; every
  // Run installs nodes that point into it.
  std::vector<NodeState> states_;
  // Lent to every Run's Network: the topology is fixed for the object's
  // lifetime, so a route found by one query serves all later ones.  `memo_`
  // is options_.route_memo, else &own_memo_.
  RouteMemo own_memo_;
  RouteMemo* memo_;
};

/// A range-query protocol node over empty per-node state whose rejected
/// frames go to `on_bad` (see proto::DispatchProbe), for tests of the node
/// class's dispatch.  Deliver it only frames that Dispatch must reject: its
/// handlers have no deployment to act on.
std::unique_ptr<proto::ProtocolNode> NewRangeQueryDispatchProbe(
    proto::BadMessageFn on_bad);

}  // namespace elink

#endif  // ELINK_INDEX_QUERY_PROTOCOL_H_
