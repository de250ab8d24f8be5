// The simulated sensor network: nodes, message delivery, timers, and cost
// accounting over a Topology, driven by a deterministic event queue.
//
// Two delay regimes model the paper's two settings:
//  * synchronous  — every hop takes exactly one time unit (Section 4);
//  * asynchronous — per-hop delays are drawn uniformly from a configured
//    interval (Section 5), so message orderings can interleave arbitrarily.
#ifndef ELINK_SIM_NETWORK_H_
#define ELINK_SIM_NETWORK_H_

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "sim/churn.h"
#include "sim/event_queue.h"
#include "sim/fault.h"
#include "sim/graph.h"
#include "sim/message.h"
#include "sim/msg_arena.h"
#include "sim/observer.h"
#include "sim/stats.h"
#include "sim/topology.h"

namespace elink {

class Network;

/// \brief Next-hop memo of routed sends over one static adjacency.
///
/// The entry for (relay, destination) holds the relay's parent in
/// BfsTreeParents(adjacency, destination) and the relay's hop count to the
/// destination.  Network::Route stores every node of each chain its BFS
/// walks, so one destination's entries are closed under next hop and a hit
/// replays the whole chain without a search.  Entries depend on nothing but
/// the adjacency: every Network over the same topology may share one memo,
/// and a memo must never be shared across topologies.  Empty until the
/// first routed send, so Networks that never route pay nothing for it.
class RouteMemo {
 public:
  explicit RouteMemo(int num_nodes) : num_nodes_(num_nodes) {}

  int num_nodes() const { return num_nodes_; }
  /// Stored (relay, destination) entries.
  size_t size() const { return size_; }

  /// Drops every entry and frees the table, for an owner that bounds the
  /// memo's size; later routed sends store their routes again.  Must not run
  /// during a Network::Run that reads the memo.
  void Clear() {
    slots_ = {};
    size_ = 0;
  }

 private:
  friend class Network;
  struct Hop {
    int next;
    int hops;
  };
  struct Slot {
    uint64_t key;
    Hop hop;
  };
  static constexpr uint64_t kEmpty = ~uint64_t{0};

  static uint64_t Key(int relay, int to) {
    return static_cast<uint64_t>(to) << 32 | static_cast<uint32_t>(relay);
  }
  size_t Home(uint64_t key) const {
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
  }
  /// The entry for (relay, to), or nullptr.
  const Hop* Find(int relay, int to) const;
  /// Stores (relay, to) -> hop; an existing entry is left as it is (it holds
  /// the same hop: both came from the one BFS tree of `to`).
  void Insert(int relay, int to, Hop hop);

  int num_nodes_;
  size_t size_ = 0;
  // Open addressing with linear probing over a power-of-two table, kept at
  // most half full; `shift_` maps a hashed key to its home slot.
  std::vector<Slot> slots_;
  int shift_ = 64;
};

/// \brief Base class for protocol logic running on one sensor node.
///
/// Subclasses implement HandleMessage / HandleTimer; they send messages and
/// set timers through the owning Network.
class Node {
 public:
  virtual ~Node() = default;

  /// Delivery of a single-hop (or routed) message from `from`.
  virtual void HandleMessage(int from, const Message& msg) = 0;

  /// Expiry of a timer set via Network::SetTimer.
  virtual void HandleTimer(int timer_id) { (void)timer_id; }

  /// Called once by InstallNode after network()/id() are wired; protocols
  /// that own helper objects needing the back-pointers (e.g. a
  /// ReliableChannel) attach them here.
  virtual void OnInstall() {}

  /// The node came back with reset protocol state: a churn join/repair, or a
  /// fault-plan crash whose recover_at arrived.  Timers set before the
  /// restart never fire (the Network bumps the node's restart generation),
  /// so implementations re-arm whatever they need and drop in-flight
  /// bookkeeping.  The default keeps legacy resume-as-if-nothing-happened
  /// behavior for protocols that predate churn.
  virtual void OnRestart() {}

  /// First-class churn changed this node's neighborhood: `neighbor` became
  /// reachable (`up`) or unreachable (`!up`) through a join/leave/crash/
  /// repair/link change.  Fault-plan crashes and outages are NOT announced —
  /// those stay invisible at the protocol level, exactly as before.
  virtual void OnNeighborChange(int neighbor, bool up) {
    (void)neighbor, (void)up;
  }

  /// Appends this node's protocol state to `out` for a whole-network
  /// snapshot (proto/snapshot.h).  The encoding must be deterministic: two
  /// nodes in identical states must emit identical bytes, since the
  /// restore path proves state equality by byte comparison.  The base
  /// emits nothing — stateless relays have nothing to persist; the proto
  /// runtime overrides this with its transport state.
  virtual void EncodeSnapshotState(std::vector<uint8_t>* out) const {
    (void)out;
  }

  int id() const { return id_; }

 protected:
  Network* network() const { return network_; }

 private:
  friend class Network;
  Network* network_ = nullptr;
  int id_ = -1;
};

/// \brief The simulated network.
class Network {
 public:
  struct Config {
    /// Synchronous: one time unit per hop.  Asynchronous: U(min, max).
    bool synchronous = true;
    double async_delay_min = 0.5;
    double async_delay_max = 1.5;
    uint64_t seed = 1;
    /// Fault model of the run (message loss, link outages, node crashes).
    /// The default plan is inert: delivery is perfectly reliable and the run
    /// is byte-identical to a build without the fault layer.
    FaultPlan fault;
    /// Topology dynamics of the run (joins, leaves, crash/repair cycles,
    /// link add/remove).  The default plan is inert: the topology is frozen
    /// and the run is byte-identical to a build without the churn layer.
    ChurnPlan churn;
    /// Route memo to read and fill instead of the Network's own, for callers
    /// that build many Networks over one topology (a query protocol lends
    /// its memo to every run's Network).  Borrowed: it must outlive the
    /// Network, cover the same node count, and have been filled over the
    /// same adjacency only.  Null (the default) uses a memo the Network
    /// owns.  Ignored while churn is enabled: no memo is read or written.
    RouteMemo* route_memo = nullptr;
  };

  Network(Topology topology, Config config);

  // Nodes hold back-pointers to their Network, so it must never move.
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Installs the protocol object for node `id`.  All nodes must be
  /// installed before the first Send/SetTimer/Run.
  void InstallNode(int id, std::unique_ptr<Node> node);

  /// Convenience: installs `factory(id)` for every node id.
  void InstallNodes(
      const std::function<std::unique_ptr<Node>(int)>& factory);

  int num_nodes() const { return topology_.num_nodes(); }
  const Topology& topology() const { return topology_; }
  /// Current radio neighborhood of `id`: the deployment adjacency, edited by
  /// any churn link changes that have taken effect.  Absent/crashed
  /// neighbors still appear — presence is a per-node property (IsPresent),
  /// not an edge property.
  const std::vector<int>& neighbors(int id) const {
    return churn_.enabled() ? live_adjacency_[id] : topology_.adjacency[id];
  }

  /// Sends `msg` over the single radio hop from `from` to neighbor `to`.
  /// Cost: msg.CostUnits() units in msg.category.
  void Send(int from, int to, Message msg);

  /// Sends `msg` to every neighbor of `from` (independent transmissions).
  /// All fan-out deliveries share one immutable payload — the message is
  /// materialized once, not copied per neighbor — but each transmission is
  /// charged, delayed, and fault-gated independently.  Send is the one-leg
  /// case of the same fan-out, so a Broadcast is bit-identical to the N
  /// Sends it replaces.
  void Broadcast(int from, Message msg);

  /// Sends `msg` from `from` to an arbitrary node `to` along a shortest hop
  /// path of the live graph at send time (under churn: current links,
  /// present relays); intermediate nodes relay without processing.  Each
  /// hop is charged like a Send.  The path is the chain from `from` up
  /// BfsTreeParents(graph, to), memoized without churn (see RouteMemo).
  /// Used for quadtree parent/child signalling and query routing, whose
  /// endpoints need not be radio neighbors.  Returns the number of hops
  /// traveled (0 for from == to, in which case the message is delivered
  /// locally after zero delay).
  int SendRouted(int from, int to, Message msg);

  /// Hop distance between two nodes over the same live graph SendRouted
  /// uses (-1 if disconnected, or under churn if either end is absent).
  int HopDistance(int from, int to);

  /// Schedules HandleTimer(timer_id) on node `id` after `delay`.
  void SetTimer(int id, double delay, int timer_id);

  /// Schedules an arbitrary callback (driver code, not charged).  Accepts
  /// any void() callable, including move-only closures.
  void ScheduleAfter(double delay, EventQueue::Callback cb);

  double Now() const { return queue_.Now(); }

  /// Runs until the event queue drains or `max_events` dispatches.  Returns
  /// the number of events dispatched; when the cap was hit with work still
  /// queued (a runaway/livelocked protocol), hit_event_cap() reports it and
  /// a warning is logged — callers turn that into a Status instead of the
  /// process aborting.
  uint64_t Run(uint64_t max_events = 200'000'000ULL);

  /// Mid-run checkpoint seam for the snapshot layer (proto/snapshot.h).
  ///
  /// While armed, every Network on the arming thread counts the events it
  /// dispatches into `dispatched`; when the cumulative count reaches the
  /// initial `countdown`, `on_fire` runs once, from inside Run between two
  /// events, with the Network that crossed the threshold.  The callback is
  /// a read-only witness: it must not send, schedule, or draw randomness —
  /// runs with and without an armed checkpoint are byte-identical.
  ///
  /// Armed Run calls drain in two RunAll chunks instead of one (RunAll is
  /// resumable mid-bucket, so the split is unobservable); disarmed runs
  /// pay one thread-local load per Run call and nothing per event.
  struct RunCheckpoint {
    /// Events still to dispatch before firing (UINT64_MAX: never fire —
    /// pure event counting).
    uint64_t countdown = UINT64_MAX;
    /// Total events dispatched while this checkpoint was armed.
    uint64_t dispatched = 0;
    bool fired = false;
    std::function<void(Network&)> on_fire;
  };

  /// Arms `cp` for the calling thread (nullptr disarms).  The caller owns
  /// the checkpoint and must disarm before it goes out of scope.
  static void ArmCheckpoint(RunCheckpoint* cp);
  static RunCheckpoint* armed_checkpoint();

  /// True when the last Run() stopped at the event cap with events pending.
  bool hit_event_cap() const { return hit_event_cap_; }

  Node* node(int id) { return nodes_[id].get(); }
  /// The payload arena holding every in-flight message (exposed for
  /// tests/diagnostics).
  const MessageArena& arena() const { return arena_; }
  MessageStats& stats() { return stats_; }
  const MessageStats& stats() const { return stats_; }
  Rng& rng() { return rng_; }
  const FaultInjector& fault() const { return fault_; }
  const ChurnSchedule& churn() const { return churn_; }
  /// The route memo this Network reads and fills: the lent one, else its
  /// own.  Null while churn is enabled.
  const RouteMemo* route_memo() const { return memo_; }

  /// True when `id` is deployed right now under the churn plan (joined, not
  /// left, not in a churn crash window).  Fault-plan crashes do NOT count:
  /// they are protocol-invisible.  Always true without churn.  This is the
  /// directory knowledge a membership layer would give protocols — it is
  /// deterministic and consumes no randomness.
  bool IsPresent(int id) const {
    return !churn_.enabled() || !churn_.IsAbsent(id, queue_.Now());
  }

  /// Transmissions lost because of churn (absent endpoint or removed link).
  /// A transmission that would also have been lost to the fault plan still
  /// counts here, so `stats().dropped_sends() == churn_drops()` identifies
  /// runs whose only losses were topological.
  uint64_t churn_drops() const { return churn_drops_; }

  /// Installs (or clears, with nullptr) the observability hook.  Observers
  /// are read-only witnesses: attaching one never changes a run's outcome,
  /// and with none attached every emission site is a single null check.
  void set_observer(SimObserver* observer) { observer_ = observer; }
  SimObserver* observer() const { return observer_; }

  /// Counts a delivered-but-undecodable frame against `category` and reports
  /// it to the observer.  `node` is the rejecting receiver.
  void NoteDecodeError(int node, const std::string& category) {
    stats_.RecordDecodeError(category);
    if (observer_ != nullptr) {
      observer_->OnDecodeError(queue_.Now(), node, category);
    }
  }

 private:
  double NextHopDelay();
  /// Hop count of the shortest live path from `from` to `to` (from != to;
  /// -1 when there is none), with each path node's next hop towards `to`
  /// left in route_next_.  A memo hit replays the stored chain; a miss runs
  /// a BFS from `to` that stops at `from` and memoizes the chain it found.
  int Route(int from, int to);
  /// True when (from, to) is an edge of the *current* (churn-edited)
  /// adjacency.  Only meaningful while churn is enabled.
  bool HasLiveEdge(int from, int to) const;
  /// Applies one scheduled churn event: restarts/notifies nodes, edits the
  /// live adjacency, reports to the observer.
  void ApplyChurnEvent(const ChurnSchedule::Event& ev);
  /// Bumps `node`'s restart generation (orphaning its pending timers) and
  /// invokes Node::OnRestart.
  void RestartNode(int node);
  /// Delivers OnNeighborChange(node, up) to every present live neighbor.
  void NotifyNeighbors(int node, bool up);
  /// Sends the payload `msg` from `from` to each node of `to`: one arena
  /// payload and one causal message id for the whole fan-out, then per leg
  /// the delay draw, the truncation draw (OnAir), the loss decision
  /// (Transmit) and the delivery, which takes a reference on the shared
  /// payload or owns the leg's truncated copy.
  void FanOut(int from, std::span<const int> to, Message&& msg);
  /// The frame one transmission of `payload` puts on the air: `payload`
  /// itself, or a private truncated copy when the fault plan cuts this
  /// transmission (draws from the fault stream only under such a plan).
  /// OnAir and Transmit run once per leg or hop, so they are inline; both
  /// are defined (and forced inline) in network.cc, the only file that
  /// calls them.
  inline MessageArena::Slot* OnAir(MessageArena::Slot* payload);
  /// Decides whether the frame `msg` (`bytes` long) that `from` puts on the
  /// air at `sent` reaches `to` at `arrives`, under the fault plan and then
  /// churn, and charges it as sent or dropped; reports the causal edge
  /// (message `msg_id`, parent `cause`) and any drop to the observer.  The
  /// one loss decision behind unicast legs, broadcast legs and routed hops.
  /// Returns true when the frame is delivered.
  inline bool Transmit(int from, int to, double sent, double arrives,
                       const Message& msg, uint64_t bytes, uint64_t msg_id,
                       uint64_t cause);
  /// Inline-event trampolines installed into the EventQueue.
  static void OnDeliveryEvent(void* ctx, int from, int to, void* payload);
  static void OnTimerEvent(void* ctx, int node, int timer_id, uint64_t aux);

  /// Next causal id.  Ids are dense from 1 and drawn only inside
  /// observer-attached branches, so untraced runs never touch the counter
  /// and traced same-seed runs draw identical id streams.  Purely
  /// observational: no simulation decision depends on an id.
  uint64_t NewCauseId() { return ++next_cause_id_; }

  Topology topology_;
  Config config_;
  EventQueue queue_;
  MessageArena arena_;
  Rng rng_;
  FaultInjector fault_;
  ChurnSchedule churn_;
  // Deployment adjacency with churn link changes applied; populated (and
  // consulted) only while churn is enabled.  Neighbor lists stay sorted
  // ascending, matching Topology::adjacency's contract.
  std::vector<std::vector<int>> live_adjacency_;
  // Per-node restart generation: bumped by RestartNode so timers set before
  // a restart are orphaned instead of firing on the new incarnation.
  std::vector<uint32_t> restart_gen_;
  uint64_t churn_drops_ = 0;
  // Causal-trace plumbing (all of it dormant without an observer).
  // `timer_cause_pool_` parks the arming handler's id for each in-flight
  // traced timer; the pool slot index (+1, 0 meaning "no parent") rides in
  // the high half of the timer event's aux word and is recycled when the
  // timer fires, is suppressed, or is orphaned by a restart generation
  // bump... the last of which cannot be detected at arm time, so orphaned
  // slots are reclaimed at fire time like every other.
  uint64_t next_cause_id_ = 0;
  std::vector<uint64_t> timer_cause_pool_;
  std::vector<uint32_t> free_timer_slots_;
  std::vector<std::unique_ptr<Node>> nodes_;
  MessageStats stats_;
  SimObserver* observer_ = nullptr;
  bool hit_event_cap_ = false;
  // Next-hop memo of Route(): `memo_` is the lent Config::route_memo, else
  // `own_memo_`, and null under churn, where routes follow the live graph
  // and a stored chain could cross a removed link or an absent relay.
  RouteMemo own_memo_;
  RouteMemo* memo_ = nullptr;
  // Route() scratch reused by every call.
  std::vector<int> route_next_;
  Bfs route_bfs_;
};

}  // namespace elink

#endif  // ELINK_SIM_NETWORK_H_
