// Tests for src/sim: event queue, topologies, graph utilities, network
// message delivery / routing / timers / accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/event_queue.h"
#include "sim/graph.h"
#include "sim/network.h"
#include "sim/topology.h"

namespace elink {
namespace {

TEST(EventQueueTest, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(3.0, [&] { order.push_back(3); });
  q.ScheduleAt(1.0, [&] { order.push_back(1); });
  q.ScheduleAt(2.0, [&] { order.push_back(2); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.Now(), 3.0);
}

TEST(EventQueueTest, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.ScheduleAt(1.0, [&order, i] { order.push_back(i); });
  }
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, EventsCanScheduleEvents) {
  EventQueue q;
  int fired = 0;
  q.ScheduleAt(1.0, [&] {
    ++fired;
    q.ScheduleAfter(1.0, [&] { ++fired; });
  });
  EXPECT_EQ(q.RunAll(), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(q.Now(), 2.0);
}

TEST(EventQueueTest, RunUntilStopsAtBoundary) {
  EventQueue q;
  int fired = 0;
  q.ScheduleAt(1.0, [&] { ++fired; });
  q.ScheduleAt(2.0, [&] { ++fired; });
  q.ScheduleAt(3.0, [&] { ++fired; });
  EXPECT_EQ(q.RunUntil(2.0), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.Size(), 1u);
}

TEST(EventQueueTest, RunUntilAdvancesNowToHorizon) {
  EventQueue q;
  int fired = 0;
  q.ScheduleAt(1.0, [&] { ++fired; });
  EXPECT_EQ(q.RunUntil(5.0), 1u);
  // The queue drained at t=1, but the caller simulated up to t=5: Now() is
  // the horizon, so relative scheduling continues from there.
  EXPECT_DOUBLE_EQ(q.Now(), 5.0);
  q.ScheduleAfter(1.0, [&] { ++fired; });
  q.RunAll();
  EXPECT_DOUBLE_EQ(q.Now(), 6.0);
  EXPECT_EQ(fired, 2);
  // An empty RunUntil also advances, and never moves time backwards.
  EXPECT_EQ(q.RunUntil(10.0), 0u);
  EXPECT_DOUBLE_EQ(q.Now(), 10.0);
  EXPECT_EQ(q.RunUntil(4.0), 0u);
  EXPECT_DOUBLE_EQ(q.Now(), 10.0);
}

TEST(EventQueueTest, MoveOnlyPayloadsPopWithoutCopying) {
  EventQueue q;
  // std::function would reject this closure outright (not copyable); the
  // old queue additionally deep-copied every closure on pop.
  auto payload = std::make_unique<int>(41);
  int seen = 0;
  q.ScheduleAt(1.0, [p = std::move(payload), &seen] { seen = *p + 1; });
  // A payload large enough to force the heap storage path as well.
  struct Big {
    double vals[16];
  };
  Big big{};
  big.vals[7] = 8.0;
  double big_seen = 0.0;
  q.ScheduleAt(2.0, [big, &big_seen] { big_seen = big.vals[7]; });
  q.RunAll();
  EXPECT_EQ(seen, 42);
  EXPECT_DOUBLE_EQ(big_seen, 8.0);
}

TEST(EventQueueTest, PeakSizeTracksHighWater) {
  EventQueue q;
  for (int i = 0; i < 10; ++i) {
    q.ScheduleAt(static_cast<double>(i), [] {});
  }
  EXPECT_EQ(q.PeakSize(), 10u);
  q.RunAll();
  EXPECT_EQ(q.Size(), 0u);
  EXPECT_EQ(q.PeakSize(), 10u);
  q.ScheduleAt(q.Now(), [] {});
  EXPECT_EQ(q.PeakSize(), 10u);
}

// Stress with heavy timestamp collisions and reschedules from inside
// callbacks: the dispatch order must match a reference model that stably
// sorts by time — i.e. exact (time, insertion-sequence) order.  Exercises
// bucket reuse, hash-table growth and backward-shift deletion, and
// same-time scheduling at Now() during dispatch.
TEST(EventQueueTest, TieHeavyOrderMatchesStableSortModel) {
  EventQueue q;
  Rng rng(99);
  std::vector<std::pair<double, int>> scheduled;  // (time, id) in seq order
  std::vector<int> fired;
  int next_id = 0;

  // 9 distinct base times, many events per time, interleaved insertion.
  auto schedule = [&](double time) {
    const int id = next_id++;
    scheduled.emplace_back(time, id);
    q.ScheduleAt(time, [id, &fired] { fired.push_back(id); });
  };
  for (int round = 0; round < 200; ++round) {
    schedule(static_cast<double>(rng.UniformInt(9)) * 0.5);
  }
  // Chains that re-enter the queue from inside callbacks, half landing on
  // already-populated times (including exactly Now()).
  for (int chain = 0; chain < 50; ++chain) {
    const double t = static_cast<double>(rng.UniformInt(9)) * 0.5;
    const int id = next_id++;
    scheduled.emplace_back(t, id);
    q.ScheduleAt(t, [id, t, chain, &fired, &scheduled, &next_id, &q] {
      fired.push_back(id);
      const double tn = (chain % 2 == 0) ? t : t + 0.25;
      const int id2 = next_id++;
      scheduled.emplace_back(tn, id2);
      q.ScheduleAt(tn, [id2, &fired] { fired.push_back(id2); });
    });
  }
  q.RunAll();

  ASSERT_EQ(fired.size(), scheduled.size());
  // Reference: stable sort by time keeps insertion order within ties.  The
  // chained events were appended to `scheduled` mid-run, but always with a
  // time >= every already-fired time, so the model stays valid.
  std::stable_sort(scheduled.begin(), scheduled.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  for (size_t i = 0; i < scheduled.size(); ++i) {
    EXPECT_EQ(fired[i], scheduled[i].second) << "at dispatch " << i;
  }
}

TEST(TopologyTest, GridStructure) {
  Topology t = MakeGridTopology(3, 4);
  EXPECT_EQ(t.num_nodes(), 12);
  // Interior node 5 = (row 1, col 1) has 4 neighbors.
  EXPECT_EQ(t.adjacency[5].size(), 4u);
  // Corner 0 has 2.
  EXPECT_EQ(t.adjacency[0].size(), 2u);
  EXPECT_TRUE(t.HasEdge(0, 1));
  EXPECT_TRUE(t.HasEdge(0, 4));
  EXPECT_FALSE(t.HasEdge(0, 5));
  // Grid edges: 3*3 horizontal + 2*4 vertical = 17.
  EXPECT_EQ(t.num_edges(), 17);
  EXPECT_EQ(t.max_degree(), 4);
  EXPECT_TRUE(IsConnected(t.adjacency));
}

TEST(TopologyTest, RandomTopologyIsConnectedAndInBounds) {
  Rng rng(71);
  Result<Topology> t = MakeRandomTopology(60, 10.0, 1.6, &rng);
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(IsConnected(t.value().adjacency));
  for (const auto& p : t.value().positions) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, 10.0);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, 10.0);
  }
}

TEST(TopologyTest, RandomTopologyAdjacencySymmetric) {
  Rng rng(73);
  Result<Topology> t = MakeRandomTopology(40, 8.0, 1.5, &rng);
  ASSERT_TRUE(t.ok());
  for (int i = 0; i < t.value().num_nodes(); ++i) {
    for (int j : t.value().adjacency[i]) {
      EXPECT_TRUE(t.value().HasEdge(j, i));
    }
  }
}

TEST(TopologyTest, DegreeCalibrationIsReasonable) {
  Rng rng(79);
  Result<Topology> t = MakeRandomTopologyWithDegree(300, 0.8, 4.0, &rng);
  ASSERT_TRUE(t.ok());
  // Forced connectivity can raise the degree above the target; it must at
  // least reach it and stay within a sane band.
  EXPECT_GE(t.value().average_degree(), 3.0);
  EXPECT_LE(t.value().average_degree(), 10.0);
}

TEST(TopologyTest, RejectsBadArguments) {
  Rng rng(83);
  EXPECT_FALSE(MakeRandomTopology(0, 1.0, 0.5, &rng).ok());
  EXPECT_FALSE(MakeRandomTopology(5, -1.0, 0.5, &rng).ok());
  EXPECT_FALSE(MakeRandomTopologyWithDegree(5, 0.0, 4.0, &rng).ok());
}

// All-pairs reference for BuildDiskAdjacency: the same distance test over
// every pair, lists sorted.
AdjacencyList AllPairsDiskAdjacency(const std::vector<Point2D>& pts,
                                    double range) {
  const int n = static_cast<int>(pts.size());
  AdjacencyList adj(n);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (EuclideanDistance(pts[i], pts[j]) <= range) {
        adj[i].push_back(j);
        adj[j].push_back(i);
      }
    }
  }
  for (auto& nb : adj) std::sort(nb.begin(), nb.end());
  return adj;
}

TEST(TopologyTest, GridBucketedDiskAdjacencyMatchesAllPairs) {
  Rng rng(89);
  for (int trial = 0; trial < 6; ++trial) {
    const int n = 50 + 150 * trial;
    const double side = 4.0 + 3.0 * trial;
    std::vector<Point2D> pts(n);
    for (auto& p : pts) p = {rng.Uniform(0, side), rng.Uniform(0, side)};
    for (double range : {0.01, 0.3, 0.75, 1.0, 2.5, side, 2.0 * side}) {
      EXPECT_EQ(BuildDiskAdjacency(pts, range),
                AllPairsDiskAdjacency(pts, range))
          << "trial " << trial << " range " << range;
    }
  }
}

TEST(TopologyTest, GridBucketedDiskAdjacencyOnCellEdges) {
  // Lattice points at multiples of the range (and of half of it) sit on the
  // bucket boundaries, and axis neighbors are exactly `range` apart.
  for (double range : {0.25, 0.5, 1.0, 0.1, 0.3, 1.7}) {
    for (double step : {range, range / 2.0, range * 3.0}) {
      std::vector<Point2D> pts;
      for (int r = 0; r < 12; ++r) {
        for (int c = 0; c < 12; ++c) pts.push_back({c * step, r * step});
      }
      // Off-lattice points just inside and just outside the range.
      pts.push_back({std::nextafter(range, 0.0), 0.0});
      pts.push_back({std::nextafter(range, 2.0 * range), 5.0 * step});
      pts.push_back({-range, -range});
      EXPECT_EQ(BuildDiskAdjacency(pts, range),
                AllPairsDiskAdjacency(pts, range))
          << "range " << range << " step " << step;
    }
  }
  EXPECT_TRUE(BuildDiskAdjacency({}, 1.0).empty());
}

TEST(GraphTest, HopDistancesOnGrid) {
  Topology t = MakeGridTopology(3, 3);
  const auto dist = HopDistancesFrom(t.adjacency, 0);
  EXPECT_EQ(dist[0], 0);
  EXPECT_EQ(dist[8], 4);  // Opposite corner: Manhattan distance.
  EXPECT_EQ(dist[4], 2);
}

TEST(GraphTest, BfsTreeParentsRootAndReachability) {
  Topology t = MakeGridTopology(2, 3);
  const auto parent = BfsTreeParents(t.adjacency, 0);
  EXPECT_EQ(parent[0], 0);
  for (int i = 1; i < 6; ++i) {
    EXPECT_GE(parent[i], 0);
    EXPECT_NE(parent[i], i);
  }
}

TEST(GraphTest, ComponentsOfDisconnectedGraph) {
  AdjacencyList adj = {{1}, {0}, {3}, {2}, {}};
  EXPECT_FALSE(IsConnected(adj));
  const auto comp = ConnectedComponents(adj);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[2], comp[3]);
  EXPECT_NE(comp[0], comp[2]);
  EXPECT_NE(comp[4], comp[0]);
  EXPECT_NE(comp[4], comp[2]);
}

TEST(GraphTest, InducedComponentsRespectMask) {
  // Path 0-1-2-3; removing node 1 splits {0} from {2,3}.
  AdjacencyList adj = {{1}, {0, 2}, {1, 3}, {2}};
  std::vector<char> mask = {1, 0, 1, 1};
  const auto comp = InducedComponents(adj, mask);
  EXPECT_EQ(comp[1], -1);
  EXPECT_NE(comp[0], comp[2]);
  EXPECT_EQ(comp[2], comp[3]);
  EXPECT_FALSE(IsInducedConnected(adj, mask));
  mask[1] = 1;
  EXPECT_TRUE(IsInducedConnected(adj, mask));
}

TEST(GraphTest, ShortestHopPathEndpointsAndLength) {
  Topology t = MakeGridTopology(3, 3);
  const auto path = ShortestHopPath(t.adjacency, 0, 8);
  ASSERT_EQ(path.size(), 5u);
  EXPECT_EQ(path.front(), 0);
  EXPECT_EQ(path.back(), 8);
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    EXPECT_TRUE(t.HasEdge(path[i], path[i + 1]));
  }
}

/// The textbook search `Bfs` must reproduce: a full FIFO search from `src`
/// over admitted nodes (the source is never asked), recording discovery
/// order, parents and hop counts.
struct TextbookSearch {
  std::vector<int> order, parent, hops;
};

TextbookSearch TextbookBfs(const AdjacencyList& adj, int src,
                           const std::vector<char>& admit) {
  const int n = static_cast<int>(adj.size());
  TextbookSearch out{{}, std::vector<int>(n, -1), std::vector<int>(n, -1)};
  std::vector<char> seen(n, 0);
  std::queue<int> queue;
  seen[src] = 1;
  out.parent[src] = src;
  out.hops[src] = 0;
  out.order.push_back(src);
  queue.push(src);
  while (!queue.empty()) {
    const int u = queue.front();
    queue.pop();
    for (int v : adj[u]) {
      if (seen[v]) continue;
      seen[v] = 1;
      if (!admit[v]) continue;
      out.parent[v] = u;
      out.hops[v] = out.hops[u] + 1;
      out.order.push_back(v);
      queue.push(v);
    }
  }
  return out;
}

TEST(GraphTest, BfsMatchesTextbookSearch) {
  // Random graphs (sparse ones are often disconnected) with shuffled
  // neighbour order, random admit masks and stop sets: the source itself,
  // one random node (often unreachable or refused), several, or none.  A
  // stopped search must be the textbook search's prefix up to its first
  // stop node.  One Bfs serves every search, so stale stamps would show.
  constexpr int kMaxNodes = 40;
  Bfs bfs(kMaxNodes);
  Rng rng(20061);
  int stopped = 0, exhausted = 0;
  for (int graph = 0; graph < 250; ++graph) {
    const int n = 1 + static_cast<int>(rng.UniformInt(kMaxNodes));
    const double p = rng.Uniform(0.0, 6.0 / n);
    AdjacencyList adj(n);
    for (int u = 0; u < n; ++u) {
      for (int v = u + 1; v < n; ++v) {
        if (rng.Bernoulli(p)) {
          adj[u].push_back(v);
          adj[v].push_back(u);
        }
      }
    }
    for (auto& nbrs : adj) {
      for (size_t i = nbrs.size(); i > 1; --i) {
        std::swap(nbrs[i - 1], nbrs[rng.UniformInt(i)]);
      }
    }
    for (int search = 0; search < 4; ++search) {
      const int src = static_cast<int>(rng.UniformInt(n));
      const double keep = rng.Uniform(0.5, 1.0);
      std::vector<char> admit(n), stop(n, 0);
      for (int v = 0; v < n; ++v) admit[v] = rng.Bernoulli(keep) ? 1 : 0;
      switch (search) {
        case 0:
          stop[src] = 1;
          break;
        case 1:
          stop[rng.UniformInt(n)] = 1;
          break;
        case 2:
          for (int v = 0; v < n; ++v) stop[v] = rng.Bernoulli(0.1) ? 1 : 0;
          break;
        default:
          break;  // No stop: a flood.
      }
      const TextbookSearch full = TextbookBfs(adj, src, admit);
      int want = -1;
      size_t prefix = full.order.size();
      for (size_t i = 0; i < full.order.size(); ++i) {
        if (stop[full.order[i]]) {
          want = full.order[i];
          prefix = i + 1;
          break;
        }
      }
      std::vector<int> asked(n, 0);
      const int got = bfs.Run(
          adj, src,
          [&](int v) {
            ++asked[v];
            return admit[v] != 0;
          },
          [&](int v) { return stop[v] != 0; });
      SCOPED_TRACE(testing::Message() << "graph " << graph << " search "
                                      << search << " src " << src);
      ASSERT_EQ(got, want);
      ++(got >= 0 ? stopped : exhausted);
      const std::vector<int> order(full.order.begin(),
                                   full.order.begin() + prefix);
      EXPECT_EQ(bfs.order(), order);
      EXPECT_EQ(asked[src], 0);
      std::vector<char> in_prefix(n, 0);
      for (int v : order) in_prefix[v] = 1;
      for (int v = 0; v < n; ++v) {
        EXPECT_LE(asked[v], 1) << "node " << v;
        EXPECT_EQ(bfs.reached(v), in_prefix[v] != 0) << "node " << v;
        EXPECT_EQ(bfs.parent(v), in_prefix[v] ? full.parent[v] : -1);
        EXPECT_EQ(bfs.hops(v), in_prefix[v] ? full.hops[v] : -1);
        std::vector<int> path;
        if (in_prefix[v]) {
          for (int cur = v; cur != src; cur = full.parent[cur]) {
            path.push_back(cur);
          }
          path.push_back(src);
          std::reverse(path.begin(), path.end());
        }
        EXPECT_EQ(bfs.PathTo(v), path) << "node " << v;
      }
    }
  }
  // Both kinds of outcome were exercised.
  EXPECT_GT(stopped, 100);
  EXPECT_GT(exhausted, 100);
}

// -- Network ------------------------------------------------------------------

/// Node that counts received messages and echoes on request.
class RecorderNode : public Node {
 public:
  void HandleMessage(int from, const Message& msg) override {
    received.push_back({from, msg});
    if (msg.type == 99) {  // Echo request.
      Message reply;
      reply.type = 100;
      reply.category = "echo";
      network()->Send(id(), from, reply);
    }
  }
  void HandleTimer(int timer_id) override { timers.push_back(timer_id); }

  std::vector<std::pair<int, Message>> received;
  std::vector<int> timers;
};

std::unique_ptr<Network> MakeTestNetwork(bool synchronous = true) {
  Network::Config cfg;
  cfg.synchronous = synchronous;
  cfg.seed = 5;
  auto net = std::make_unique<Network>(MakeGridTopology(3, 3), cfg);
  net->InstallNodes([](int) { return std::make_unique<RecorderNode>(); });
  return net;
}

TEST(NetworkTest, SendDeliversToNeighborWithUnitDelay) {
  auto net_ptr = MakeTestNetwork();
  Network& net = *net_ptr;
  Message m;
  m.type = 7;
  m.category = "test";
  m.doubles = {1.0, 2.0};
  net.Send(0, 1, m);
  net.Run();
  auto* n1 = static_cast<RecorderNode*>(net.node(1));
  ASSERT_EQ(n1->received.size(), 1u);
  EXPECT_EQ(n1->received[0].first, 0);
  EXPECT_EQ(n1->received[0].second.type, 7);
  EXPECT_DOUBLE_EQ(net.Now(), 1.0);
  EXPECT_EQ(net.stats().total_sends(), 1u);
  EXPECT_EQ(net.stats().total_units(), 2u);  // Two coefficients.
  EXPECT_EQ(net.stats().units("test"), 2u);
}

TEST(NetworkTest, BroadcastReachesAllNeighbors) {
  auto net_ptr = MakeTestNetwork();
  Network& net = *net_ptr;
  Message m;
  m.type = 1;
  m.category = "bc";
  net.Broadcast(4, m);  // Center of the 3x3 grid: 4 neighbors.
  net.Run();
  EXPECT_EQ(net.stats().sends("bc"), 4u);
  for (int nb : {1, 3, 5, 7}) {
    EXPECT_EQ(static_cast<RecorderNode*>(net.node(nb))->received.size(), 1u);
  }
}

/// Node that appends every delivery to a log shared by the whole network.
class DeliveryLogNode : public Node {
 public:
  struct Delivery {
    double time;
    int from;
    int to;
    size_t ints;
    size_t doubles;
    bool operator==(const Delivery&) const = default;
  };
  explicit DeliveryLogNode(std::vector<Delivery>* log) : log_(log) {}
  void HandleMessage(int from, const Message& msg) override {
    log_->push_back({network()->Now(), from, id(), msg.ints.size(),
                     msg.doubles.size()});
  }

 private:
  std::vector<Delivery>* log_;
};

TEST(NetworkTest, BroadcastMatchesIndependentSendsUnderFaults) {
  // A Broadcast must be bit-identical to one Send per neighbor: the same
  // delay, truncation and loss draws in the same order, so the same
  // deliveries at the same instants with the same (possibly cut) payloads,
  // and the same ledger.
  uint64_t drops = 0;
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    Network::Config cfg;
    cfg.synchronous = false;
    cfg.seed = seed;
    cfg.fault.drop_probability = 0.2;
    cfg.fault.truncate_probability = 0.3;
    cfg.fault.node_crashes.push_back({5, 0.8, 2.5});
    std::vector<DeliveryLogNode::Delivery> bcast_log, send_log;
    Network bcast(MakeGridTopology(4, 4), cfg);
    Network sends(MakeGridTopology(4, 4), cfg);
    bcast.InstallNodes(
        [&](int) { return std::make_unique<DeliveryLogNode>(&bcast_log); });
    sends.InstallNodes(
        [&](int) { return std::make_unique<DeliveryLogNode>(&send_log); });
    // Two rounds from every node: the second starts while node 5 is down,
    // so crashed senders and receivers both occur.
    auto round = [](Network& net, bool broadcast) {
      for (int from = 0; from < net.num_nodes(); ++from) {
        Message m;
        m.category = "bc";
        m.ints = {1, 2, 3, 4};
        m.doubles = {0.5, 1.5, 2.5};
        if (broadcast) {
          net.Broadcast(from, std::move(m));
        } else {
          for (int nb : net.neighbors(from)) net.Send(from, nb, m);
        }
      }
    };
    for (Network* net : {&bcast, &sends}) {
      const bool broadcast = net == &bcast;
      round(*net, broadcast);
      net->ScheduleAfter(1.0, [net, broadcast, round] {
        round(*net, broadcast);
      });
      net->Run();
    }

    EXPECT_EQ(bcast_log, send_log) << "seed " << seed;
    EXPECT_EQ(bcast.stats().ToString(), sends.stats().ToString())
        << "seed " << seed;
    EXPECT_EQ(bcast.arena().live(), 0u);
    EXPECT_EQ(sends.arena().live(), 0u);
    drops += bcast.stats().dropped_sends();
  }
  EXPECT_GT(drops, 0u);
}

TEST(NetworkTest, SendRoutedChargesPerHop) {
  auto net_ptr = MakeTestNetwork();
  Network& net = *net_ptr;
  Message m;
  m.type = 2;
  m.category = "routed";
  const int hops = net.SendRouted(0, 8, m);
  EXPECT_EQ(hops, 4);
  net.Run();
  EXPECT_EQ(net.stats().sends("routed"), 4u);
  auto* n8 = static_cast<RecorderNode*>(net.node(8));
  ASSERT_EQ(n8->received.size(), 1u);
  // Sender seen by the destination is the penultimate node on the route.
  EXPECT_TRUE(net.topology().HasEdge(n8->received[0].first, 8));
  EXPECT_DOUBLE_EQ(net.Now(), 4.0);
}

TEST(NetworkTest, SendRoutedToSelfIsLocal) {
  auto net_ptr = MakeTestNetwork();
  Network& net = *net_ptr;
  Message m;
  m.type = 3;
  m.category = "self";
  EXPECT_EQ(net.SendRouted(4, 4, m), 0);
  net.Run();
  EXPECT_EQ(net.stats().total_sends(), 0u);
  EXPECT_EQ(static_cast<RecorderNode*>(net.node(4))->received.size(), 1u);
}

TEST(NetworkTest, HopDistanceMatchesGraph) {
  auto net_ptr = MakeTestNetwork();
  Network& net = *net_ptr;
  EXPECT_EQ(net.HopDistance(0, 8), 4);
  EXPECT_EQ(net.HopDistance(3, 3), 0);
}

/// A routed send's relay transmissions, as (from, to) pairs.
using Hops = std::vector<std::pair<int, int>>;

/// Records the relay hops and drops of routed sends.
class HopLog : public SimObserver {
 public:
  void OnHop(double at, int from, int to, const Message& msg) override {
    (void)at, (void)msg;
    hops.push_back({from, to});
  }
  void OnDrop(double at, int from, int to, const Message& msg) override {
    (void)at, (void)from, (void)to, (void)msg;
    ++drops;
  }
  Hops hops;
  int drops = 0;
};

/// The relay sequence of a route from `from` up the BFS tree rooted at `to`.
Hops BfsChain(const AdjacencyList& adj, int from, int to) {
  const std::vector<int> parent = BfsTreeParents(adj, to);
  Hops chain;
  for (int cur = from; cur != to; cur = parent[cur]) {
    chain.push_back({cur, parent[cur]});
  }
  return chain;
}

Message RoutedMessage() {
  Message m;
  m.type = 2;
  m.category = "routed";
  return m;
}

TEST(NetworkTest, RoutedHopsFollowBfsTreeOfDestination) {
  // Every pair is routed twice on a Network with its own memo (a miss, then
  // a hit), then on a Network lending `memo` and on one borrowing it after
  // that: each path and hop count stays the destination's BFS-tree chain.
  for (uint64_t seed : {3u, 17u, 29u}) {
    Rng rng(seed);
    Result<Topology> t = MakeRandomTopologyWithDegree(300, 0.8, 4.0, &rng);
    ASSERT_TRUE(t.ok());
    const AdjacencyList adj = t.value().adjacency;
    std::vector<std::pair<int, int>> pairs;
    for (int k = 0; k < 200; ++k) {
      const int from = static_cast<int>(rng.UniformInt(300));
      pairs.push_back({from, static_cast<int>(rng.UniformInt(300))});
    }
    RouteMemo memo(300);
    auto route_all = [&](RouteMemo* lent) {
      Network::Config cfg;
      cfg.synchronous = false;
      cfg.seed = seed;
      cfg.route_memo = lent;
      Network net(t.value(), cfg);
      net.InstallNodes([](int) { return std::make_unique<RecorderNode>(); });
      HopLog log;
      net.set_observer(&log);
      for (const auto& [from, to] : pairs) {
        const std::vector<int> dist = HopDistancesFrom(adj, to);
        const Hops chain = BfsChain(adj, from, to);
        for (int round = 0; round < 2; ++round) {
          EXPECT_EQ(net.HopDistance(from, to), dist[from]);
          log.hops.clear();
          EXPECT_EQ(net.SendRouted(from, to, RoutedMessage()), dist[from]);
          EXPECT_EQ(log.hops, chain)
              << "seed " << seed << " " << from << " -> " << to;
        }
        // Every relay of the chain now routes from the memo.
        for (const auto& [relay, next] : chain) {
          EXPECT_EQ(net.HopDistance(relay, to), dist[relay]);
        }
      }
      net.Run();
      EXPECT_EQ(log.drops, 0);
      if (lent != nullptr) {
        EXPECT_EQ(net.route_memo(), lent);
      }
      return net.route_memo()->size();
    };
    const size_t own_entries = route_all(nullptr);
    EXPECT_GT(own_entries, 0u);
    EXPECT_EQ(route_all(&memo), own_entries);
    // Every route of the borrower is a hit: nothing new is stored.
    EXPECT_EQ(route_all(&memo), own_entries);
  }
}

TEST(NetworkTest, ChurnBypassesALentRouteMemo) {
  // The memo learns 0 -> 2 via relay 1 on the static grid.  Under churn the
  // route must follow the live graph (1 is down over [3, 5)), and the lent
  // memo is neither read nor written.
  RouteMemo memo(9);
  {
    Network::Config cfg;
    cfg.route_memo = &memo;
    Network net(MakeGridTopology(3, 3), cfg);
    net.InstallNodes([](int) { return std::make_unique<RecorderNode>(); });
    EXPECT_EQ(net.HopDistance(0, 2), 2);
  }
  const size_t entries = memo.size();
  EXPECT_EQ(entries, 2u);

  Network::Config cfg;
  cfg.seed = 5;
  cfg.churn.crashes.push_back({1, 3.0, 5.0});
  cfg.route_memo = &memo;
  Network net(MakeGridTopology(3, 3), cfg);
  net.InstallNodes([](int) { return std::make_unique<RecorderNode>(); });
  EXPECT_EQ(net.route_memo(), nullptr);
  HopLog log;
  net.set_observer(&log);
  Hops at_crash;
  net.ScheduleAfter(3.0, [&] {
    EXPECT_EQ(net.HopDistance(0, 2), 4);
    log.hops.clear();
    net.SendRouted(0, 2, RoutedMessage());
    at_crash = log.hops;
  });
  net.Run();
  EXPECT_EQ(at_crash, (Hops{{0, 3}, {3, 4}, {4, 5}, {5, 2}}));
  EXPECT_EQ(memo.size(), entries);
}

/// A 3x3 grid network (ids r * 3 + c) running `churn`, with a hop log.
struct ChurnGrid {
  explicit ChurnGrid(ChurnPlan churn) {
    Network::Config cfg;
    cfg.seed = 5;
    cfg.churn = std::move(churn);
    net = std::make_unique<Network>(MakeGridTopology(3, 3), cfg);
    net->InstallNodes([](int) { return std::make_unique<RecorderNode>(); });
    net->set_observer(&log);
  }
  /// Sends 0 -> 2 at `at` and records the hop sequence it took.
  void SendAt(double at, Hops* hops) {
    net->ScheduleAfter(at, [this, hops] {
      log.hops.clear();
      net->SendRouted(0, 2, RoutedMessage());
      *hops = log.hops;
    });
  }
  std::unique_ptr<Network> net;
  HopLog log;
};

TEST(NetworkTest, RoutedSendAvoidsAbsentRelayFromTheChurnInstant) {
  // 0 -> 2 normally relays through 1.  Node 1 is down over [3, 5): a send at
  // the very instant of the crash (scheduled after the churn event, so it
  // runs second) already detours, and one at the repair instant is back on
  // the short path.
  ChurnPlan plan;
  plan.crashes.push_back({1, 3.0, 5.0});
  ChurnGrid g(plan);
  Hops before, at_crash, at_repair;
  g.SendAt(0.0, &before);
  g.SendAt(3.0, &at_crash);
  g.SendAt(5.0, &at_repair);
  g.net->Run();
  EXPECT_EQ(before, (Hops{{0, 1}, {1, 2}}));
  EXPECT_EQ(at_crash, (Hops{{0, 3}, {3, 4}, {4, 5}, {5, 2}}));
  EXPECT_EQ(at_repair, (Hops{{0, 1}, {1, 2}}));
  EXPECT_EQ(g.net->churn_drops(), 0u);
  EXPECT_EQ(g.log.drops, 0);
}

TEST(NetworkTest, RoutedSendToAbsentDestinationIsOneChurnDrop) {
  ChurnPlan plan;
  plan.leaves.push_back({2, 1.0});
  ChurnGrid g(plan);
  Hops hops = {{-1, -1}};
  g.SendAt(1.0, &hops);
  g.net->Run();
  EXPECT_TRUE(hops.empty());
  EXPECT_EQ(g.net->churn_drops(), 1u);
  EXPECT_EQ(g.net->stats().dropped_sends(), 1u);
  EXPECT_EQ(g.net->stats().total_sends(), 0u);
  EXPECT_EQ(g.log.drops, 1);
  EXPECT_EQ(g.net->HopDistance(0, 2), -1);
}

TEST(NetworkTest, RoutedSendAcrossLinkPartitionIsOneChurnDrop) {
  // Removing 1-2 and 4-5 at t=2 leaves column 2 reachable only via 7-8;
  // also removing 7-8 cuts it off.  A send at the removal instant already
  // sees the edited adjacency.
  ChurnPlan plan;
  plan.link_changes.push_back({1, 2, 2.0, false});
  plan.link_changes.push_back({4, 5, 2.0, false});
  ChurnGrid g(plan);
  Hops detour;
  g.SendAt(2.0, &detour);
  g.net->Run();
  EXPECT_EQ(detour, (Hops{{0, 1}, {1, 4}, {4, 7}, {7, 8}, {8, 5}, {5, 2}}));

  plan.link_changes.push_back({7, 8, 2.0, false});
  ChurnGrid cut(plan);
  Hops none = {{-1, -1}};
  cut.SendAt(2.0, &none);
  cut.net->Run();
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(cut.net->churn_drops(), 1u);
  EXPECT_EQ(cut.net->stats().dropped_sends(), 1u);
  EXPECT_EQ(cut.log.drops, 1);
  EXPECT_EQ(cut.net->HopDistance(0, 2), -1);
  EXPECT_EQ(cut.net->HopDistance(0, 8), -1);
  EXPECT_EQ(cut.net->HopDistance(0, 7), 3);
}

TEST(NetworkTest, TimersFire) {
  auto net_ptr = MakeTestNetwork();
  Network& net = *net_ptr;
  net.SetTimer(2, 5.0, 42);
  net.SetTimer(2, 1.0, 43);
  net.Run();
  auto* n2 = static_cast<RecorderNode*>(net.node(2));
  EXPECT_EQ(n2->timers, (std::vector<int>{43, 42}));
  EXPECT_DOUBLE_EQ(net.Now(), 5.0);
}

TEST(NetworkTest, EchoRoundTrip) {
  auto net_ptr = MakeTestNetwork();
  Network& net = *net_ptr;
  Message m;
  m.type = 99;
  m.category = "ping";
  net.Send(3, 4, m);
  net.Run();
  auto* n3 = static_cast<RecorderNode*>(net.node(3));
  ASSERT_EQ(n3->received.size(), 1u);
  EXPECT_EQ(n3->received[0].second.type, 100);
  EXPECT_DOUBLE_EQ(net.Now(), 2.0);
}

TEST(NetworkTest, AsynchronousDelaysVaryButDeliver) {
  auto net_ptr = MakeTestNetwork(/*synchronous=*/false);
  Network& net = *net_ptr;
  Message m;
  m.type = 1;
  m.category = "a";
  net.Send(0, 1, m);
  net.Send(0, 3, m);
  net.Run();
  EXPECT_EQ(static_cast<RecorderNode*>(net.node(1))->received.size(), 1u);
  EXPECT_EQ(static_cast<RecorderNode*>(net.node(3))->received.size(), 1u);
  EXPECT_GT(net.Now(), 0.0);
  EXPECT_LT(net.Now(), 1.5 + 1e-9);
}

TEST(MessageStatsTest, MergeAndReset) {
  MessageStats a, b;
  a.Record("x", 2);
  b.Record("x", 3);
  b.Record("y", 1);
  a.Merge(b);
  EXPECT_EQ(a.total_units(), 6u);
  EXPECT_EQ(a.units("x"), 5u);
  EXPECT_EQ(a.units("y"), 1u);
  EXPECT_EQ(a.total_sends(), 3u);
  a.Reset();
  EXPECT_EQ(a.total_units(), 0u);
  EXPECT_EQ(a.units("x"), 0u);
}

TEST(MessageStatsTest, DroppedSendsStayOutOfDeliveredTotals) {
  MessageStats s;
  s.Record("x", 2);
  s.RecordDropped("x", 3);
  s.RecordDropped("y", 1);
  EXPECT_EQ(s.total_sends(), 1u);
  EXPECT_EQ(s.total_units(), 2u);
  EXPECT_EQ(s.dropped_sends(), 2u);
  EXPECT_EQ(s.dropped_units(), 4u);
  EXPECT_EQ(s.dropped("x"), 3u);
  EXPECT_EQ(s.dropped("y"), 1u);
  EXPECT_EQ(s.dropped("z"), 0u);

  MessageStats other;
  other.RecordDropped("x", 2);
  s.Merge(other);
  EXPECT_EQ(s.dropped_units(), 6u);
  EXPECT_EQ(s.dropped("x"), 5u);
  EXPECT_EQ(s.total_units(), 2u);  // Merge does not mix the ledgers.

  s.Reset();
  EXPECT_EQ(s.dropped_sends(), 0u);
  EXPECT_EQ(s.dropped_units(), 0u);
  EXPECT_TRUE(s.dropped_by_category().empty());
}

TEST(MessageStatsTest, MergeCarriesPerCategoryDropsAndDecodeErrors) {
  // Regression: a merge must carry every per-category counter — dropped
  // units/sends and decode errors — not just delivered units, for both
  // disjoint categories (interned fresh in the destination) and overlapping
  // ones (ids differ between the two ledgers).
  MessageStats a;
  a.Record("shared", 1);
  a.RecordDropped("shared", 2);
  a.RecordDecodeError("shared");
  a.RecordDropped("only_a", 4);

  MessageStats b;
  b.RecordDropped("only_b", 7);     // Disjoint: never seen by `a`.
  b.RecordDropped("shared", 3);     // Overlapping, different id in `b`.
  b.RecordDecodeError("shared");
  b.RecordDecodeError("only_b");
  b.Record("only_b", 5);

  a.Merge(b);
  EXPECT_EQ(a.dropped("shared"), 5u);
  EXPECT_EQ(a.dropped("only_a"), 4u);
  EXPECT_EQ(a.dropped("only_b"), 7u);
  EXPECT_EQ(a.dropped_units(), 16u);
  EXPECT_EQ(a.dropped_sends(), 4u);
  EXPECT_EQ(a.decode_errors(), 3u);
  EXPECT_EQ(a.decode_errors("shared"), 2u);
  EXPECT_EQ(a.decode_errors("only_b"), 1u);
  EXPECT_EQ(a.units("shared"), 1u);
  EXPECT_EQ(a.units("only_b"), 5u);
  const auto& dropped_view = a.dropped_by_category();
  ASSERT_EQ(dropped_view.size(), 3u);
  EXPECT_EQ(dropped_view.at("only_b"), 7u);

  // Merging into a fresh ledger (all categories disjoint) preserves the
  // combined picture too.
  MessageStats fresh;
  fresh.Merge(a);
  EXPECT_EQ(fresh.dropped("shared"), 5u);
  EXPECT_EQ(fresh.decode_errors("shared"), 2u);
  EXPECT_EQ(fresh.dropped_units(), a.dropped_units());
  EXPECT_EQ(fresh.decode_errors(), a.decode_errors());
}

TEST(MessageStatsTest, ToStringMentionsDropsOnlyWhenPresent) {
  MessageStats s;
  s.Record("x", 1);
  EXPECT_EQ(s.ToString().find("dropped"), std::string::npos);
  s.RecordDropped("x", 1);
  EXPECT_NE(s.ToString().find("dropped"), std::string::npos);
}

/// A protocol that re-arms its own timer forever: the event queue never
/// drains, so Run must stop at the cap and flag it instead of aborting.
class LivelockNode : public Node {
 public:
  void HandleMessage(int, const Message&) override {}
  void HandleTimer(int timer_id) override {
    network()->SetTimer(id(), 1.0, timer_id);
  }
};

TEST(NetworkTest, EventCapIsRecoverable) {
  Network::Config cfg;
  auto net = std::make_unique<Network>(MakeGridTopology(2, 2), cfg);
  net->InstallNodes([](int) { return std::make_unique<LivelockNode>(); });
  net->SetTimer(0, 1.0, 1);
  EXPECT_FALSE(net->hit_event_cap());
  EXPECT_EQ(net->Run(/*max_events=*/100), 100u);
  EXPECT_TRUE(net->hit_event_cap());
  // A later run that drains resets the flag.
  auto quiet = std::make_unique<Network>(MakeGridTopology(2, 2), cfg);
  quiet->InstallNodes([](int) { return std::make_unique<LivelockNode>(); });
  quiet->Run();
  EXPECT_FALSE(quiet->hit_event_cap());
}

TEST(MessageTest, CostUnitsRules) {
  Message empty;
  EXPECT_EQ(empty.CostUnits(), 1);
  Message with_payload;
  with_payload.doubles = {1, 2, 3, 4};
  EXPECT_EQ(with_payload.CostUnits(), 4);
}

}  // namespace
}  // namespace elink
