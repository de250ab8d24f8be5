#include "sim/network.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/logging.h"
#include "proto/wire.h"

namespace elink {

namespace {

// The armed-checkpoint slot lives behind this out-of-line accessor: a
// class-static thread_local inlined into other translation units goes
// through GCC's TLS wrapper, which UBSan flags as a null-pointer store.
Network::RunCheckpoint*& CheckpointSlot() {
  static thread_local Network::RunCheckpoint* slot = nullptr;
  return slot;
}

}  // namespace

void Network::ArmCheckpoint(RunCheckpoint* cp) { CheckpointSlot() = cp; }
Network::RunCheckpoint* Network::armed_checkpoint() { return CheckpointSlot(); }

namespace {

// Real bytes one hop of `msg` occupies on the air.  wire.h is a leaf header
// (message + status only), so charging actual frame lengths here does not
// create a sim <-> proto link cycle.
inline uint64_t FrameBytes(const Message& msg) {
  return static_cast<uint64_t>(wire::FrameSize(msg));
}

}  // namespace

Network::Network(Topology topology, Config config)
    : topology_(std::move(topology)),
      config_(std::move(config)),
      rng_(config_.seed),
      fault_(config_.fault, config_.seed),
      churn_(config_.churn, topology_.num_nodes()),
      restart_gen_(topology_.num_nodes(), 0),
      nodes_(topology_.num_nodes()),
      own_memo_(topology_.num_nodes()),
      route_next_(topology_.num_nodes(), -1),
      route_bfs_(topology_.num_nodes()) {
  ELINK_CHECK(config_.async_delay_min > 0.0);
  ELINK_CHECK(config_.async_delay_max >= config_.async_delay_min);
  queue_.SetInlineHandlers(&Network::OnDeliveryEvent, &Network::OnTimerEvent,
                           this);
  if (config_.route_memo != nullptr) {
    ELINK_CHECK(config_.route_memo->num_nodes() == num_nodes());
  }
  if (!churn_.enabled()) {
    memo_ = config_.route_memo != nullptr ? config_.route_memo : &own_memo_;
  } else {
    live_adjacency_ = topology_.adjacency;
    // The whole plan is scheduled up front; event callbacks draw no
    // randomness, so enabling churn perturbs no RNG stream.
    for (const ChurnSchedule::Event& ev : churn_.events()) {
      queue_.ScheduleAfter(ev.at, [this, ev]() { ApplyChurnEvent(ev); });
    }
    // Neighbors of a late joiner see it down from the start; scheduled at
    // t=0 (before any protocol event: the constructor runs first) rather
    // than called here because nodes are not installed yet.
    for (const ChurnSchedule::Event& ev : churn_.events()) {
      if (ev.kind == ChurnSchedule::Event::kJoin && ev.at > 0.0) {
        queue_.ScheduleAfter(
            0.0, [this, n = ev.a]() { NotifyNeighbors(n, /*up=*/false); });
      }
    }
  }
  if (fault_.enabled()) {
    // A fault-plan crash with a finite recover_at is a repair: the node
    // restarts with reset protocol state (and no stale pre-crash timers)
    // instead of silently resuming where it left off.  Unlike churn, the
    // repair is not announced to neighbors — fault-plan crashes stay
    // protocol-invisible.
    for (const FaultPlan::NodeCrash& c : config_.fault.node_crashes) {
      if (c.recover_at < std::numeric_limits<double>::infinity()) {
        queue_.ScheduleAfter(c.recover_at,
                             [this, n = c.node]() { RestartNode(n); });
      }
    }
  }
}

bool Network::HasLiveEdge(int from, int to) const {
  const std::vector<int>& adj = live_adjacency_[from];
  return std::binary_search(adj.begin(), adj.end(), to);
}

void Network::RestartNode(int node) {
  ++restart_gen_[node];
  if (nodes_[node] != nullptr) nodes_[node]->OnRestart();
}

void Network::NotifyNeighbors(int node, bool up) {
  for (int nb : neighbors(node)) {
    if (churn_.IsAbsent(nb, Now())) continue;
    if (nodes_[nb] != nullptr) nodes_[nb]->OnNeighborChange(node, up);
  }
}

void Network::ApplyChurnEvent(const ChurnSchedule::Event& ev) {
  using Event = ChurnSchedule::Event;
  switch (ev.kind) {
    case Event::kJoin:
    case Event::kRepair:
      RestartNode(ev.a);
      NotifyNeighbors(ev.a, /*up=*/true);
      break;
    case Event::kLeave:
    case Event::kCrash:
      NotifyNeighbors(ev.a, /*up=*/false);
      break;
    case Event::kLinkAdd:
    case Event::kLinkRemove: {
      const bool add = ev.kind == Event::kLinkAdd;
      auto edit = [add](std::vector<int>* adj, int other) {
        auto it = std::lower_bound(adj->begin(), adj->end(), other);
        if (add && (it == adj->end() || *it != other)) {
          adj->insert(it, other);
        } else if (!add && it != adj->end() && *it == other) {
          adj->erase(it);
        }
      };
      edit(&live_adjacency_[ev.a], ev.b);
      edit(&live_adjacency_[ev.b], ev.a);
      if (!churn_.IsAbsent(ev.a, Now()) && nodes_[ev.a] != nullptr) {
        nodes_[ev.a]->OnNeighborChange(ev.b, add);
      }
      if (!churn_.IsAbsent(ev.b, Now()) && nodes_[ev.b] != nullptr) {
        nodes_[ev.b]->OnNeighborChange(ev.a, add);
      }
      break;
    }
  }
  if (observer_ != nullptr) {
    observer_->OnChurn(Now(), ChurnSchedule::KindName(ev.kind), ev.a, ev.b);
  }
}

void Network::InstallNode(int id, std::unique_ptr<Node> node) {
  ELINK_CHECK(id >= 0 && id < num_nodes());
  ELINK_CHECK(node != nullptr);
  node->network_ = this;
  node->id_ = id;
  nodes_[id] = std::move(node);
  nodes_[id]->OnInstall();
}

void Network::InstallNodes(
    const std::function<std::unique_ptr<Node>(int)>& factory) {
  for (int id = 0; id < num_nodes(); ++id) InstallNode(id, factory(id));
}

double Network::NextHopDelay() {
  if (config_.synchronous) return 1.0;
  return rng_.Uniform(config_.async_delay_min, config_.async_delay_max);
}

// OnAir and Transmit run once per fan-out leg or routed hop, the
// simulator's hottest path.  Left to GCC's -O2 inliner both stay out of
// line, which costs perf_simcore's broadcast storm ~5% of its sends/sec, so
// they are forced inline.
[[gnu::always_inline]] MessageArena::Slot* Network::OnAir(
    MessageArena::Slot* payload) {
  size_t keep_ints = 0, keep_doubles = 0;
  if (!fault_.truncates() ||
      !fault_.TruncatePayload(payload->msg.ints.size(),
                              payload->msg.doubles.size(), &keep_ints,
                              &keep_doubles)) {
    return payload;
  }
  // The truncated copy is still the same logical transmission, so it keeps
  // the payload's message id: the (id, to) pair stays unique across legs.
  MessageArena::Slot* chopped = arena_.Create(Message(payload->msg));
  chopped->msg.ints.resize(keep_ints);
  chopped->msg.doubles.resize(keep_doubles);
  chopped->msg_id = payload->msg_id;
  return chopped;
}

[[gnu::always_inline]] bool Network::Transmit(int from, int to, double sent,
                                              double arrives,
                                              const Message& msg,
                                              uint64_t bytes, uint64_t msg_id,
                                              uint64_t cause) {
  // Every loss is decided when the frame leaves (the receiver's crash state
  // at its arrival instant), so runs stay deterministic and a drop is
  // charged exactly once.  The fault decision always comes first: churn is
  // schedule-only and draws nothing, so adding it cannot perturb the fault
  // RNG stream.
  const bool fault_drop =
      fault_.enabled() && (fault_.IsCrashed(from, sent) ||
                           fault_.DropTransmission(from, to, sent) ||
                           fault_.IsCrashed(to, arrives));
  // Under churn a protocol may legitimately address a link that no longer
  // (or does not yet) exist; that transmission is lost here, not a bug.
  const bool churn_drop =
      churn_.enabled() &&
      (churn_.IsAbsent(from, sent) || churn_.IsAbsent(to, arrives) ||
       !HasLiveEdge(from, to));
  const bool lost = fault_drop || churn_drop;
  if (lost) {
    if (churn_drop) ++churn_drops_;
    stats_.RecordDropped(msg.category, msg.CostUnits(), bytes);
  } else {
    stats_.Record(msg.category, msg.CostUnits(), bytes);
  }
  if (observer_ != nullptr) {
    observer_->OnCausal({0, msg_id, cause});
    if (lost) observer_->OnDrop(sent, from, to, msg);
  }
  return !lost;
}

void Network::FanOut(int from, std::span<const int> to, Message&& msg) {
  MessageArena::Slot* shared = arena_.Create(std::move(msg));
  if (observer_ != nullptr) shared->msg_id = NewCauseId();
  for (int nb : to) {
    ELINK_CHECK(topology_.HasEdge(from, nb) ||
                (churn_.enabled() && HasLiveEdge(from, nb)));
    ELINK_CHECK(nodes_[nb] != nullptr);
    // Draw order per leg: delay, then truncation (the chopped frame is what
    // is on the air, so a drop charges its length), then loss.
    const double delay = NextHopDelay();
    MessageArena::Slot* frame = OnAir(shared);
    if (!Transmit(from, nb, Now(), Now() + delay, frame->msg,
                  FrameBytes(frame->msg), frame->msg_id,
                  queue_.active_cause())) {
      // A lost leg schedules nothing and so takes no reference on `shared`.
      if (frame != shared) arena_.Release(frame);
      continue;
    }
    if (observer_ != nullptr) {
      observer_->OnSend(Now(), from, nb, frame->msg, delay);
    }
    // Each scheduled delivery owns one reference: an intact leg adds one to
    // the shared payload, a truncated leg hands over its private copy's.
    if (frame == shared) MessageArena::AddRef(shared);
    queue_.ScheduleDeliveryAfter(delay, from, nb, frame);
  }
  // Drop the creator's reference; the payload now lives exactly as long as
  // its last scheduled delivery (or dies here if every leg was lost).
  arena_.Release(shared);
}

void Network::Send(int from, int to, Message msg) {
  FanOut(from, {&to, 1}, std::move(msg));
}

void Network::Broadcast(int from, Message msg) {
  const std::vector<int>& nbrs = neighbors(from);
  if (nbrs.empty()) return;
  FanOut(from, nbrs, std::move(msg));
}

void Network::OnDeliveryEvent(void* ctx, int from, int to, void* payload) {
  Network* net = static_cast<Network*>(ctx);
  auto* slot = static_cast<MessageArena::Slot*>(payload);
  if (net->observer_ != nullptr) {
    const uint64_t self = net->NewCauseId();
    net->queue_.set_active_cause(self);
    net->observer_->OnCausal({self, slot->msg_id, 0});
    net->observer_->OnDeliver(net->Now(), from, to, slot->msg);
  }
  net->nodes_[to]->HandleMessage(from, slot->msg);
  net->arena_.Release(slot);
}

void Network::OnTimerEvent(void* ctx, int node, int timer_id, uint64_t aux) {
  Network* net = static_cast<Network*>(ctx);
  // Unpack the aux word: restart generation below, traced causal-parent
  // pool slot (+1; 0 = untraced or genesis) above.  The pool slot is
  // reclaimed on every fire outcome — including generation-orphaned and
  // crash/absence-suppressed timers — so the pool's occupancy tracks timers
  // actually in flight.
  const uint32_t gen = static_cast<uint32_t>(aux);
  const uint32_t cause_slot = static_cast<uint32_t>(aux >> 32);
  uint64_t parent = 0;
  if (cause_slot != 0) {
    parent = net->timer_cause_pool_[cause_slot - 1];
    net->free_timer_slots_.push_back(cause_slot - 1);
  }
  // Timers set before a restart (churn join/repair, or a fault-plan crash
  // recovery) belong to the previous incarnation and never fire — the
  // restart bumped the node's generation.  OnRestart re-arms whatever the
  // new incarnation needs.
  if (net->restart_gen_[node] != gen) return;
  // A crashed/absent node's timers are suppressed (it recovers with no
  // pending timers; protocols re-arm on recovery if they support it).
  const double now = net->queue_.Now();
  if (net->fault_.enabled() && net->fault_.IsCrashed(node, now)) return;
  if (net->churn_.enabled() && net->churn_.IsAbsent(node, now)) return;
  if (net->observer_ != nullptr) {
    const uint64_t self = net->NewCauseId();
    net->queue_.set_active_cause(self);
    net->observer_->OnCausal({self, 0, parent});
    net->observer_->OnTimerFire(now, node, timer_id);
  }
  net->nodes_[node]->HandleTimer(timer_id);
}

const RouteMemo::Hop* RouteMemo::Find(int relay, int to) const {
  if (slots_.empty()) return nullptr;
  const uint64_t key = Key(relay, to);
  const size_t mask = slots_.size() - 1;
  for (size_t i = Home(key);; i = (i + 1) & mask) {
    if (slots_[i].key == key) return &slots_[i].hop;
    if (slots_[i].key == kEmpty) return nullptr;
  }
}

void RouteMemo::Insert(int relay, int to, Hop hop) {
  if (2 * (size_ + 1) > slots_.size()) {
    // Double (from 64 slots) and rehash, keeping the table at most half
    // full so probe runs stay short.
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 64 : 2 * old.size(), Slot{kEmpty, {}});
    shift_ = 64 - std::countr_zero(slots_.size());
    size_ = 0;
    for (const Slot& s : old) {
      if (s.key != kEmpty) {
        Insert(static_cast<int>(s.key & 0xffffffffu),
               static_cast<int>(s.key >> 32), s.hop);
      }
    }
  }
  const uint64_t key = Key(relay, to);
  const size_t mask = slots_.size() - 1;
  for (size_t i = Home(key);; i = (i + 1) & mask) {
    if (slots_[i].key == key) return;
    if (slots_[i].key == kEmpty) {
      slots_[i] = {key, hop};
      ++size_;
      return;
    }
  }
}

int Network::Route(int from, int to) {
  if (memo_ != nullptr) {
    if (const RouteMemo::Hop* hit = memo_->Find(from, to)) {
      // The memo is closed under next hop, so every relay of the chain has
      // its own entry.
      for (int cur = from; cur != to; cur = route_next_[cur]) {
        route_next_[cur] = memo_->Find(cur, to)->next;
      }
      return hit->hops;
    }
  }
  // Under churn, absent nodes neither relay nor end a route: an absent relay
  // sinks every frame that crosses it.  Absence changes only at churn
  // events, which run first at their timestamp.
  const bool live = churn_.enabled();
  if (live && (churn_.IsAbsent(from, Now()) || churn_.IsAbsent(to, Now()))) {
    return -1;
  }
  const AdjacencyList& adj = live ? live_adjacency_ : topology_.adjacency;
  // BFS from `to` cut off once `from` is discovered, so every next hop is
  // the one the full BFS tree gives.
  const int found = route_bfs_.Run(
      adj, to,
      [&](int v) { return !live || !churn_.IsAbsent(v, Now()); },
      [from](int v) { return v == from; });
  if (found < 0) return -1;
  const int hops = route_bfs_.hops(from);
  int left = hops;
  for (int cur = from; cur != to; cur = route_next_[cur]) {
    route_next_[cur] = route_bfs_.parent(cur);
    if (memo_ != nullptr) memo_->Insert(cur, to, {route_next_[cur], left--});
  }
  return hops;
}

int Network::SendRouted(int from, int to, Message msg) {
  ELINK_CHECK(nodes_[to] != nullptr);
  if (from == to) {
    if (fault_.enabled() && fault_.IsCrashed(to, Now())) return 0;
    if (churn_.enabled() && churn_.IsAbsent(to, Now())) return 0;
    MessageArena::Slot* local = arena_.Create(std::move(msg));
    if (observer_ != nullptr) {
      local->msg_id = NewCauseId();
      observer_->OnCausal({0, local->msg_id, queue_.active_cause()});
      observer_->OnSend(Now(), from, to, local->msg, 0.0);
    }
    queue_.ScheduleDeliveryAfter(0.0, from, to, local);
    return 0;
  }
  const int hops = Route(from, to);
  if (churn_.enabled() && hops <= 0) {
    // Churn link removals can partition the live graph; a routed message
    // with no path is lost (and charged once, like any other lost frame).
    ++churn_drops_;
    stats_.RecordDropped(msg.category, msg.CostUnits(), FrameBytes(msg));
    if (observer_ != nullptr) {
      observer_->OnCausal({0, NewCauseId(), queue_.active_cause()});
      observer_->OnDrop(Now(), from, to, msg);
    }
    return 0;
  }
  ELINK_CHECK(hops > 0);  // Connected networks only.
  // One message id covers the whole routed journey: every relay hop is the
  // same frame in flight.
  MessageArena::Slot* payload = arena_.Create(std::move(msg));
  if (observer_ != nullptr) payload->msg_id = NewCauseId();
  // End-to-end payload corruption: one truncation decision per routed
  // message, drawn before the per-hop loss draws.
  MessageArena::Slot* frame = OnAir(payload);
  if (frame != payload) arena_.Release(payload);
  // The identical frame is on the air at every hop, so its length is
  // computed once per routed message, not once per relay.  The causal
  // parent is pinned here too: the hop loop runs synchronously inside the
  // caller's handler, so the active cause cannot change mid-walk.
  const uint64_t frame_bytes = FrameBytes(frame->msg);
  const uint64_t cause = queue_.active_cause();
  // Walk the path hop by hop: each relay transmission is charged when it
  // happens and any hop can lose the message (relay crashed, link down or
  // lossy, next relay dead on arrival).  The route follows live links at
  // send time, so under churn only endpoint absence can sink a hop.
  double delay = 0.0;
  int cur = from;
  int prev = from;
  while (cur != to) {
    const int next = route_next_[cur];
    const double hop_delay = NextHopDelay();
    if (!Transmit(cur, next, Now() + delay, Now() + delay + hop_delay,
                  frame->msg, frame_bytes, frame->msg_id, cause)) {
      arena_.Release(frame);
      return hops;
    }
    if (observer_ != nullptr) {
      observer_->OnHop(Now() + delay, cur, next, frame->msg);
    }
    delay += hop_delay;
    prev = cur;
    cur = next;
  }
  if (observer_ != nullptr) {
    observer_->OnCausal({0, frame->msg_id, cause});
    observer_->OnSend(Now(), from, to, frame->msg, delay);
  }
  // The penultimate node on the path is the sender seen by `to`.
  queue_.ScheduleDeliveryAfter(delay, prev, to, frame);
  return hops;
}

int Network::HopDistance(int from, int to) {
  if (from == to) return 0;
  return Route(from, to);
}

void Network::SetTimer(int id, double delay, int timer_id) {
  ELINK_CHECK(nodes_[id] != nullptr);
  // Inline POD event: the generation/crash/absence gating lives in
  // OnTimerEvent, so no closure is built per timer.  While traced and armed
  // from inside a handler, the arming cause parks in the pool and its slot
  // rides the aux word's high half (shifted +1 so 0 keeps meaning "none").
  uint64_t aux = restart_gen_[id];
  if (observer_ != nullptr) {
    const uint64_t cause = queue_.active_cause();
    if (cause != 0) {
      uint32_t slot;
      if (free_timer_slots_.empty()) {
        slot = static_cast<uint32_t>(timer_cause_pool_.size());
        timer_cause_pool_.push_back(cause);
      } else {
        slot = free_timer_slots_.back();
        free_timer_slots_.pop_back();
        timer_cause_pool_[slot] = cause;
      }
      aux |= (static_cast<uint64_t>(slot) + 1) << 32;
    }
  }
  queue_.ScheduleTimerAfter(delay, id, timer_id, aux);
}

void Network::ScheduleAfter(double delay, EventQueue::Callback cb) {
  queue_.ScheduleAfter(delay, std::move(cb));
}

uint64_t Network::Run(uint64_t max_events) {
  for (int id = 0; id < num_nodes(); ++id) {
    ELINK_CHECK(nodes_[id] != nullptr);
  }
  hit_event_cap_ = false;
  // Driver code brackets the drain: anything it sends before or after is a
  // causal genesis, never a child of whichever handler ran last.
  queue_.set_active_cause(0);
  uint64_t dispatched = 0;
  RunCheckpoint* cp = armed_checkpoint();
  if (cp == nullptr) {
    dispatched = queue_.RunAll(max_events);
  } else {
    // Chunked drain around the checkpoint: RunAll is resumable mid-bucket,
    // so splitting one drain into two is unobservable to the simulation.
    while (dispatched < max_events) {
      uint64_t budget = max_events - dispatched;
      if (!cp->fired && cp->countdown < budget) budget = cp->countdown;
      const uint64_t ran = budget == 0 ? 0 : queue_.RunAll(budget);
      dispatched += ran;
      cp->dispatched += ran;
      if (!cp->fired) {
        cp->countdown -= ran;
        if (cp->countdown == 0) {
          cp->fired = true;
          if (cp->on_fire) cp->on_fire(*this);
        }
      }
      // A short chunk means the queue drained; the checkpoint (if still
      // unfired) stays armed for the thread's next Run.
      if (ran < budget) break;
    }
  }
  queue_.set_active_cause(0);
  if (dispatched >= max_events && !queue_.Empty()) {
    hit_event_cap_ = true;
    ELINK_LOG(Warning) << "Network::Run hit the event cap (" << max_events
                       << " dispatched, " << queue_.Size()
                       << " pending); protocol is livelocked or runaway";
  }
  return dispatched;
}

}  // namespace elink
