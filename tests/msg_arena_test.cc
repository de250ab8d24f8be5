// Lifecycle and byte-identity tests for the message arena (sim/msg_arena.h).
//
// Three layers:
//  * MessageArena unit tests — refcount-driven destruction, epoch slab
//    rewind/recycle, destructor teardown of in-flight payloads.  Run under
//    ASan/LSan these double as leak proofs for every path.
//  * Network-level release tests — every way a payload can leave flight
//    (delivery, fault drop, churn drop, all-legs-dropped broadcast) must end
//    with arena().live() == 0: a send that is never delivered must still
//    free its payload.
//  * Recorded fingerprints — for 100 fuzzed scenarios, a full ELink run
//    must reproduce the recorded hashes of its serialized RunReport, ledger
//    and clustering, and its exact completion time: not "close", the same
//    bits.
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "check/scenario.h"
#include "cluster/elink.h"
#include "obs/run_report.h"
#include "obs/telemetry.h"
#include "sim/msg_arena.h"
#include "sim/network.h"
#include "sim/topology.h"

namespace elink {
namespace {

Message TestMessage(int type, std::vector<double> doubles = {}) {
  Message m;
  m.type = type;
  m.category = "test";
  m.doubles = std::move(doubles);
  return m;
}

// -- MessageArena unit tests --------------------------------------------------

TEST(MessageArenaTest, CreateReleaseLifecycle) {
  MessageArena arena;
  EXPECT_EQ(arena.live(), 0u);
  EXPECT_EQ(arena.slabs_allocated(), 0u);

  MessageArena::Slot* slot = arena.Create(TestMessage(7, {1.0, 2.5}));
  ASSERT_NE(slot, nullptr);
  EXPECT_EQ(arena.live(), 1u);
  EXPECT_EQ(arena.slabs_allocated(), 1u);
  EXPECT_EQ(slot->refs, 1u);
  EXPECT_EQ(slot->msg.type, 7);
  EXPECT_EQ(slot->msg.category, "test");
  ASSERT_EQ(slot->msg.doubles.size(), 2u);
  EXPECT_DOUBLE_EQ(slot->msg.doubles[1], 2.5);

  // One extra ref per additionally scheduled delivery; the payload survives
  // until the last release.
  MessageArena::AddRef(slot);
  EXPECT_EQ(slot->refs, 2u);
  arena.Release(slot);
  EXPECT_EQ(arena.live(), 1u);
  arena.Release(slot);
  EXPECT_EQ(arena.live(), 0u);

  // The (active) slab rewound: the next payload reuses it, no new slab.
  arena.Create(TestMessage(8));
  EXPECT_EQ(arena.slabs_allocated(), 1u);
}

TEST(MessageArenaTest, SlabGrowthAndWholesaleRecycle) {
  constexpr size_t kN = MessageArena::kSlotsPerSlab;
  MessageArena arena;

  // Fill slab 0 completely, then overflow into slab 1.
  std::vector<MessageArena::Slot*> first(kN);
  for (size_t i = 0; i < kN; ++i) {
    first[i] = arena.Create(TestMessage(static_cast<int>(i)));
  }
  EXPECT_EQ(arena.slabs_allocated(), 1u);
  MessageArena::Slot* overflow = arena.Create(TestMessage(-1));
  EXPECT_EQ(arena.slabs_allocated(), 2u);
  EXPECT_EQ(arena.live(), kN + 1);

  // Payloads survive slab growth untouched (out-of-order spot check).
  EXPECT_EQ(first[3]->msg.type, 3);
  EXPECT_EQ(first[kN - 1]->msg.type, static_cast<int>(kN - 1));

  // Drain slab 0 out of order: it rewinds wholesale only when the *last*
  // live payload goes, then waits as a drained slab.
  for (size_t i = kN; i-- > 1;) arena.Release(first[i]);
  EXPECT_EQ(arena.live(), 2u);
  arena.Release(first[0]);
  EXPECT_EQ(arena.live(), 1u);
  EXPECT_EQ(arena.slab_recycles(), 0u);

  // Fill slab 1 to capacity; the next Create must recycle drained slab 0
  // instead of allocating slab 2.
  std::vector<MessageArena::Slot*> second;
  for (size_t i = 1; i < kN; ++i) second.push_back(arena.Create(TestMessage(0)));
  EXPECT_EQ(arena.slabs_allocated(), 2u);
  MessageArena::Slot* recycled = arena.Create(TestMessage(42));
  EXPECT_EQ(arena.slabs_allocated(), 2u);
  EXPECT_EQ(arena.slab_recycles(), 1u);
  EXPECT_EQ(recycled->msg.type, 42);

  arena.Release(recycled);
  arena.Release(overflow);
  for (MessageArena::Slot* s : second) arena.Release(s);
  EXPECT_EQ(arena.live(), 0u);
}

TEST(MessageArenaTest, SteadyChurnNeverGrowsPastHighWaterMark) {
  // A long run with bounded in-flight population must not keep allocating:
  // slabs recycle through the drained list, the heap is touched only while
  // the high-water mark grows.
  MessageArena arena;
  std::vector<MessageArena::Slot*> window;
  for (int i = 0; i < 20000; ++i) {
    window.push_back(arena.Create(TestMessage(i, {1.0})));
    if (window.size() > 300) {
      arena.Release(window.front());
      window.erase(window.begin());
    }
  }
  // 300 in flight needs ceil(300/256) + 1 slabs at most (the +1 because a
  // slab only rewinds when fully drained, so two partial slabs can coexist
  // with the active one).
  EXPECT_LE(arena.slabs_allocated(), 3u);
  EXPECT_GT(arena.slab_recycles(), 0u);
  for (MessageArena::Slot* s : window) arena.Release(s);
  EXPECT_EQ(arena.live(), 0u);
}

TEST(MessageArenaTest, DestructorTearsDownInFlightPayloads) {
  // Payloads scheduled but never dispatched (a queue torn down mid-run) are
  // destroyed by ~MessageArena.  Under ASan/LSan this test fails if any
  // Message (or its heap-owned vectors) leaks.
  MessageArena arena;
  for (int i = 0; i < 10; ++i) {
    MessageArena::Slot* s =
        arena.Create(TestMessage(i, {1.0, 2.0, 3.0, 4.0}));
    if (i % 2 == 0) MessageArena::AddRef(s);  // Still live either way.
    if (i == 3) arena.Release(s), arena.Release(s);  // This one fully dies.
  }
  EXPECT_EQ(arena.live(), 9u);
  // ~MessageArena runs here and must destroy exactly the 9 live payloads.
}

// -- Network-level release tests ----------------------------------------------

class SinkNode : public Node {
 public:
  void HandleMessage(int from, const Message& msg) override {
    (void)from;
    ++received;
    payload_doubles += msg.doubles.size();
  }
  int received = 0;
  size_t payload_doubles = 0;
};

TEST(NetworkArenaTest, DeliveredPayloadsAreReleased) {
  Network::Config cfg;
  cfg.seed = 11;
  Network net(MakeGridTopology(3, 3), cfg);
  net.InstallNodes([](int) { return std::make_unique<SinkNode>(); });

  net.Send(0, 1, TestMessage(1, {1.0, 2.0}));
  net.Broadcast(4, TestMessage(2, {3.0}));  // Center node: 4 neighbors.
  net.SendRouted(0, 8, TestMessage(3));     // Multi-hop relay.
  net.SendRouted(2, 2, TestMessage(4));     // Self-delivery.
  net.Run();

  EXPECT_EQ(net.arena().live(), 0u);
  int total = 0;
  for (int i = 0; i < net.num_nodes(); ++i) {
    total += static_cast<SinkNode*>(net.node(i))->received;
  }
  EXPECT_EQ(total, 1 + 4 + 1 + 1);
}

TEST(NetworkArenaTest, FaultDroppedSendsReleasePayloads) {
  Network::Config cfg;
  cfg.seed = 12;
  cfg.fault.drop_probability = 1.0;  // Every transmission is lost.
  Network net(MakeGridTopology(3, 3), cfg);
  net.InstallNodes([](int) { return std::make_unique<SinkNode>(); });

  for (int i = 0; i < 20; ++i) net.Send(0, 1, TestMessage(i, {1.0, 2.0}));
  // All-legs-dropped broadcast: the shared payload's only remaining ref is
  // the creator's, released at the end of the fan-out loop.
  net.Broadcast(4, TestMessage(99, {5.0, 6.0, 7.0}));
  net.Run();

  EXPECT_EQ(net.arena().live(), 0u);
  EXPECT_GT(net.stats().dropped_sends(), 0u);
  for (int i = 0; i < net.num_nodes(); ++i) {
    EXPECT_EQ(static_cast<SinkNode*>(net.node(i))->received, 0);
  }
}

TEST(NetworkArenaTest, PartiallyDroppedBroadcastReleasesOnLastDelivery) {
  Network::Config cfg;
  cfg.seed = 13;
  cfg.fault.drop_probability = 0.5;
  Network net(MakeGridTopology(4, 4), cfg);
  net.InstallNodes([](int) { return std::make_unique<SinkNode>(); });

  for (int round = 0; round < 30; ++round) {
    for (int from = 0; from < net.num_nodes(); ++from) {
      net.Broadcast(from, TestMessage(round, {1.0, 2.0}));
    }
  }
  net.Run();
  // Some legs delivered, some dropped; either way every payload is dead.
  EXPECT_EQ(net.arena().live(), 0u);
  EXPECT_GT(net.stats().dropped_sends(), 0u);
}

TEST(NetworkArenaTest, ChurnAbsentEndpointDropsReleasePayloads) {
  Network::Config cfg;
  cfg.seed = 14;
  // Node 4 (grid center) is absent until t = 100: every leg to it before
  // then is a churn drop, taken before any arena ref is added.
  cfg.churn.joins.push_back({4, 100.0});
  Network net(MakeGridTopology(3, 3), cfg);
  net.InstallNodes([](int) { return std::make_unique<SinkNode>(); });

  net.Broadcast(1, TestMessage(1, {1.0}));  // One leg aimed at absent 4.
  net.Send(3, 4, TestMessage(2, {2.0}));    // Unicast into the void.
  net.Run();

  EXPECT_EQ(net.arena().live(), 0u);
  EXPECT_GE(net.churn_drops(), 2u);
  EXPECT_EQ(static_cast<SinkNode*>(net.node(4))->received, 0);
}

TEST(NetworkArenaTest, TeardownWithQueuedDeliveriesDoesNotLeak) {
  // Destroy the network with deliveries still scheduled: the arena's
  // destructor must reap the in-flight payloads (LSan-visible otherwise).
  Network::Config cfg;
  cfg.seed = 15;
  Network net(MakeGridTopology(3, 3), cfg);
  net.InstallNodes([](int) { return std::make_unique<SinkNode>(); });
  for (int i = 0; i < 50; ++i) net.Send(0, 1, TestMessage(i, {1.0, 2.0}));
  net.Broadcast(4, TestMessage(99, {3.0}));
  EXPECT_GT(net.arena().live(), 0u);
  // ~Network (and ~MessageArena) run here with every payload undelivered.
}

// -- Recorded scenario fingerprints -------------------------------------------

// FNV-1a over a byte string (the same fold HashClustering applies per root).
uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

// FNV-1a over the cluster-root assignment (same fold as determinism_test).
uint64_t HashClustering(const Clustering& c) {
  uint64_t h = 1469598103934665603ULL;
  for (int r : c.root_of) {
    h ^= static_cast<uint64_t>(static_cast<uint32_t>(r));
    h *= 1099511628211ULL;
  }
  return h;
}

struct RunFingerprint {
  uint64_t report_hash = 0;      // Fnv1a of the serialized RunReport.
  uint64_t stats_hash = 0;       // Fnv1a of MessageStats::ToString().
  uint64_t clustering_hash = 0;  // HashClustering of the result.
  std::string completion_time;   // printf("%.17g"): every bit of the double.
  bool ok = false;
};

/// One full ELink run over the fuzzed scenario, fingerprinted via the same
/// RunTelemetry -> RunReport pipeline the observability layer serializes.
RunFingerprint RunScenarioOnce(const check::Scenario& s) {
  obs::RunTelemetry tele;
  ElinkConfig cfg;
  cfg.delta = s.delta;
  cfg.slack = s.slack;
  cfg.synchronous = s.synchronous;
  cfg.seed = s.seed;
  cfg.fault = s.fault;
  cfg.observer = &tele;
  if (s.fault.enabled()) {  // Mirrors the fuzzer's TuneElinkForFaults.
    if (s.reliable) {
      cfg.reliable_transport = true;
      cfg.reliable.rto = 8.0;
      cfg.reliable.backoff = 1.5;
      cfg.reliable.max_retries = 8;
    }
    cfg.completion_timeout = 450.0;
  }

  RunFingerprint fp;
  Result<ElinkResult> r =
      RunElink(s.topology, s.features, *s.metric, cfg, s.elink_mode);
  if (!r.ok()) return fp;
  const ElinkResult& res = r.value();
  fp.ok = true;
  fp.report_hash =
      Fnv1a(tele.MakeReport("elink", s.seed, res.stats).ToJson());
  fp.stats_hash = Fnv1a(res.stats.ToString());
  fp.clustering_hash = HashClustering(res.clustering);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", res.completion_time);
  fp.completion_time = buf;
  return fp;
}

struct GoldenFingerprint {
  uint64_t report_hash;
  uint64_t stats_hash;
  uint64_t clustering_hash;
  const char* completion_time;
};

// Fingerprints of check::MakeScenario(1..100) (row i is seed i + 1),
// recorded at the build that also proved them byte-identical on a second,
// heap-closure delivery path.  The scenarios mix sync and async delays,
// both ELink modes, loss, truncation, link outages, crashes and the
// reliable transport.
constexpr GoldenFingerprint kGoldenFingerprints[] = {
    {0x5d9476da25840b24ULL, 0x04c873cbf8edbc01ULL, 0x77deb3afd959203eULL,
     "16.130835651080215"},  // seed 1
    {0xf8d297c7eee36544ULL, 0xfa0627e1646b16beULL, 0x571230867e99f386ULL,
     "30.792946942187513"},  // seed 2
    {0xbb0185dc7a5a24b5ULL, 0x2079805aebdc6f2eULL, 0xef93ea5f7c1064d9ULL,
     "38.082117353030483"},  // seed 3
    {0x481518d5e51d5533ULL, 0xd346a598098e0ce6ULL, 0xa7129a35626e9cf0ULL,
     "900"},  // seed 4
    {0xf4b59afe07c5b1fbULL, 0x7525572182173ce8ULL, 0xc0b09ddf1ee80aa8ULL,
     "98"},  // seed 5
    {0x1c77cc7c35218beaULL, 0x62dbfc03e578406dULL, 0x485311f3ca00d722ULL,
     "18.318512938400602"},  // seed 6
    {0x38947aa4f0cf6e98ULL, 0x00a17605bff9b09bULL, 0x483dbb67e6d79345ULL,
     "84.973197666118253"},  // seed 7
    {0xab97e35e7ca01ea2ULL, 0x34db5d931b6ccf7bULL, 0x9d15803f9a30af28ULL,
     "900"},  // seed 8
    {0x99bc6ad06c3dd28aULL, 0x790023c95d4d0ad7ULL, 0xf3530b56c55978faULL,
     "277.64031923598986"},  // seed 9
    {0xe7219c7eb0162181ULL, 0xcd968943c62a1fe9ULL, 0xa57cac6bb2e7f879ULL,
     "5.6632321910838401"},  // seed 10
    {0x52a2a26f85d45a54ULL, 0x1405a40451a3bed3ULL, 0xe37a0952f3115b86ULL,
     "900"},  // seed 11
    {0x7c828128fde56988ULL, 0x05ccd737db0b46b2ULL, 0xf6013eebc5251d94ULL,
     "900"},  // seed 12
    {0x3d8a38137a11f6a9ULL, 0x610f158da5babd5cULL, 0x6e3c0b2babad3c7cULL,
     "900"},  // seed 13
    {0xe0c9d460a67c8918ULL, 0x32838e610294c60dULL, 0x6bd550a4bdea15e3ULL,
     "48.578621582547548"},  // seed 14
    {0xd4932dfc979c61baULL, 0x916dbcf96e25939bULL, 0xcd938403fdef906eULL,
     "394.99477285901577"},  // seed 15
    {0x75d2b90e45e17c69ULL, 0x1240f291a479493cULL, 0x88377986adbcaa2eULL,
     "900"},  // seed 16
    {0x3836e1d2ab040001ULL, 0x799d2d40ba6c89dcULL, 0xf6ccf452eb020a72ULL,
     "52.879540652180516"},  // seed 17
    {0x8ef74e6ddb8ff07fULL, 0x1df0c961de9cac19ULL, 0x2854eb8a3862bbdbULL,
     "33.287128502637167"},  // seed 18
    {0xfa0ac2370429178cULL, 0xe23df8551d788418ULL, 0xf6605d762d2846adULL,
     "6.060985162006042"},  // seed 19
    {0x0defa95081e931eeULL, 0xd1cf73496855e718ULL, 0x4826f1f3c9db65d7ULL,
     "900"},  // seed 20
    {0x0c08b47cd0211d69ULL, 0x85abf3a26c8d3943ULL, 0xb324a058adacfac1ULL,
     "144.03541098805954"},  // seed 21
    {0xa402c38aacf7fee9ULL, 0x9cca2f971a0390d1ULL, 0xfef2c47637c14a05ULL,
     "84.879520433319882"},  // seed 22
    {0xc6671b7d44b12c25ULL, 0xbad2f9413acb7ac3ULL, 0xc5ff8f5c17564d09ULL,
     "1800"},  // seed 23
    {0x6629f376a66595f3ULL, 0x975687512e9fc72aULL, 0xf0fb566510b68923ULL,
     "46.956228709150935"},  // seed 24
    {0xf100c33dc01c08ffULL, 0xfdc77b1eb2a22d1aULL, 0xed773e6247515431ULL,
     "900"},  // seed 25
    {0xdff73d29f379536aULL, 0xa9711f31517788ebULL, 0x5bd293aa368a83a9ULL,
     "62.887500000000003"},  // seed 26
    {0xce0feb7e54042e4fULL, 0x675616fa2e043a2eULL, 0x51ba556c8aa17197ULL,
     "46.239850599805912"},  // seed 27
    {0x2137212db71ef21fULL, 0x3eed897090bcb762ULL, 0x72a662f330a6bfb5ULL,
     "26.318730714631016"},  // seed 28
    {0x0d69e94ff6bd4d55ULL, 0x76128a0a0e57c089ULL, 0x0ea1e45281e48407ULL,
     "900"},  // seed 29
    {0x54105f11febea173ULL, 0x6da00535ca0a4eb9ULL, 0x820025c3499b4142ULL,
     "148.49662026123445"},  // seed 30
    {0x23bb1ce54678f928ULL, 0x5514ee1be8c9b55aULL, 0x8ea83d10b0dfe311ULL,
     "900"},  // seed 31
    {0x018b2d47fff9e7e6ULL, 0x78dd47699360b279ULL, 0x9e6c809db488158eULL,
     "16.575000000000003"},  // seed 32
    {0x61d1ed2c68e599e7ULL, 0x4d312b6a0af2b402ULL, 0xeea1d8b9d143827fULL,
     "130"},  // seed 33
    {0xf75e34b2f313436cULL, 0x3a02270113c7045eULL, 0x8b40af963d58f233ULL,
     "29.921339693965518"},  // seed 34
    {0xb5d192d779034045ULL, 0x6563bda530caaec6ULL, 0xe2d5d6a7f3009250ULL,
     "1800"},  // seed 35
    {0x150d2dffc80485f8ULL, 0xb1c05500b0a9ea67ULL, 0xc1f5e3adffde7663ULL,
     "28.002151245317474"},  // seed 36
    {0x472f9e747dc0b773ULL, 0xabbd4919d0b03435ULL, 0x7592fc3fffce1321ULL,
     "54.303628845549696"},  // seed 37
    {0xbc051c8482c99bb2ULL, 0x552f445d63ce0ad3ULL, 0x3031254291b16551ULL,
     "36.384088475132444"},  // seed 38
    {0x7f99ebc69d3c9c3bULL, 0x9535929badea8d3bULL, 0xd2f32cff2f3206c4ULL,
     "900"},  // seed 39
    {0x92b60741059a98d6ULL, 0xc36f08f01b916dbdULL, 0xfc36ad8631adcbdfULL,
     "61.121805621198952"},  // seed 40
    {0x290f82b96092feb3ULL, 0x8170ed006a33b12fULL, 0xa53c4f9d3201a46eULL,
     "287"},  // seed 41
    {0xf64b653a3d5338fcULL, 0x070cc91d0d4752feULL, 0x8e60ac22c4f8be47ULL,
     "68"},  // seed 42
    {0x95d3456dade3ca3cULL, 0x94bd498a3b643753ULL, 0x29658a26dad01ef5ULL,
     "86"},  // seed 43
    {0x02978fda22d4db16ULL, 0xe670c87c0f4ee7b2ULL, 0x7a46f01280e9184bULL,
     "2250"},  // seed 44
    {0x9aaf5a4c732972d3ULL, 0xecbe7a0fbf4c5237ULL, 0x169566ecd03f65e3ULL,
     "900"},  // seed 45
    {0x62c96f094b1aceeaULL, 0x4434f44c4ac26090ULL, 0xa5b707f734d94316ULL,
     "42.525176289838157"},  // seed 46
    {0x4cf1d0e5666b9305ULL, 0x5baf00b88132840cULL, 0x612af0c207679929ULL,
     "900"},  // seed 47
    {0x45fee426794b18dbULL, 0x3eeb93560de3fa0cULL, 0x3f50355a33f1061aULL,
     "106"},  // seed 48
    {0xdc934538f14f6c82ULL, 0x4890d432dd0a64c9ULL, 0x612af0c207679929ULL,
     "44.120567774359969"},  // seed 49
    {0x152ad8ade086f091ULL, 0x54902474d47f510eULL, 0xa876fef3af163829ULL,
     "124.03177145576488"},  // seed 50
    {0xcd493c5f13875c23ULL, 0x00aae1b195e1a8c6ULL, 0xc1f948b33ec69461ULL,
     "44.02322619151748"},  // seed 51
    {0xc3d8dc718d276f01ULL, 0xe490ab4c8c7d29eeULL, 0xb95a0777ed0ddbdeULL,
     "55.954563214551591"},  // seed 52
    {0x59c24169e6bb3efbULL, 0x1e5fb992ca56ea46ULL, 0x74db8cadf9fc0969ULL,
     "136"},  // seed 53
    {0xf2b9e03aba8fb8d9ULL, 0x82e413a7088e7581ULL, 0xa3197e4f0012abbcULL,
     "48.014387544990512"},  // seed 54
    {0xd21fa32a2e1877baULL, 0xbffe4108812b113aULL, 0xc0b09ddf1ee80aa8ULL,
     "32"},  // seed 55
    {0x42220bc9d121acd5ULL, 0x9849ad0e484dbfb7ULL, 0xf3dd9c94d694f323ULL,
     "900"},  // seed 56
    {0xa6291d97464c7b42ULL, 0xa2dc07bd905756e2ULL, 0xf6c5fd961733b609ULL,
     "5.8967881509590612"},  // seed 57
    {0x84afa6c9129e5191ULL, 0x3ed87043a70662b2ULL, 0x4139cfc87e128467ULL,
     "28"},  // seed 58
    {0xc6ca71379f057c69ULL, 0x58c278fe23bcb8aeULL, 0x6ae4bafdb62e2887ULL,
     "107.1826038635464"},  // seed 59
    {0x00f4b28d7444151bULL, 0xbedca6ffb601cd54ULL, 0x3219e71ec52dcaf8ULL,
     "406.5"},  // seed 60
    {0xb29ed9cda8fd3a53ULL, 0x9e78df9204b996c3ULL, 0x4139cfc87e128467ULL,
     "900"},  // seed 61
    {0x102b2cab59a62af6ULL, 0x74b89a546323f8d7ULL, 0x895eae8a018b9001ULL,
     "1350"},  // seed 62
    {0x3fef40adde97b1efULL, 0x5c38ae67331096c4ULL, 0x7b7785c9e5c45046ULL,
     "900"},  // seed 63
    {0xa13f4d7191154e8aULL, 0xef975dec6ea253beULL, 0xaee5af258ece4abaULL,
     "42.264722514743148"},  // seed 64
    {0x27d5c690efbfdc80ULL, 0xd8bee58a345b0da4ULL, 0xb4be4165d861f7caULL,
     "900"},  // seed 65
    {0xc3336fb6b155da12ULL, 0x3da4d0d95b9dea60ULL, 0x5e10094c36c67404ULL,
     "883.19842588967583"},  // seed 66
    {0x562a4a9e0f3f33a9ULL, 0x95fe8ff3d2db2f1aULL, 0x4826f1f3c9db65d7ULL,
     "18.261810517081397"},  // seed 67
    {0x5de8c535309e7be9ULL, 0xab20a9a6b83c8cb3ULL, 0xe7c084ae39770f69ULL,
     "26.801448905536297"},  // seed 68
    {0x458d844e1b931664ULL, 0xfe49a755a72591e0ULL, 0xa3c975544407499cULL,
     "900"},  // seed 69
    {0x5126a7ef708d2c07ULL, 0xf5f89df63e1fffe2ULL, 0x64557d4b288ab9bbULL,
     "1350"},  // seed 70
    {0x6f18189998be27e9ULL, 0xb594812a446ac453ULL, 0xc0b09ddf1ee80aa8ULL,
     "900"},  // seed 71
    {0x635aaaa5b1f5d0ebULL, 0x1412d5497b4fd276ULL, 0xfded6f96af3b2084ULL,
     "900"},  // seed 72
    {0xdf737b08c3254b75ULL, 0xbc63103b18b03578ULL, 0x215699e3f4f0bff3ULL,
     "900"},  // seed 73
    {0xe3402fa5925db2aeULL, 0xa64b6f2286040ff3ULL, 0xf64d9d9b804ad8c1ULL,
     "99.618994018514059"},  // seed 74
    {0x300189c23c2f015eULL, 0x12fc1a0d4e195f95ULL, 0xd385395af62a4f17ULL,
     "37.090529751365281"},  // seed 75
    {0x08fdba219802e4aeULL, 0xd474e5b232318d13ULL, 0x91bb8283a96ec4f2ULL,
     "544.67924694729857"},  // seed 76
    {0xbbe00787f5e2ffebULL, 0xa28fd1fb7ab7d81fULL, 0xd3b61afc649519d1ULL,
     "6.6950741953323512"},  // seed 77
    {0x754dd4273ef33931ULL, 0xe9685479037132b7ULL, 0x0967b5a0b686e178ULL,
     "136.55644474526093"},  // seed 78
    {0xdb418a4d48a5cb5aULL, 0x3e42bc729b6e9b5dULL, 0x3088fbfd6bf9eb2eULL,
     "900"},  // seed 79
    {0x5b3ece5c03340359ULL, 0xfdc77b1eb2a22d1aULL, 0x0de7288bfd20e6b1ULL,
     "900"},  // seed 80
    {0xc44433ed06506931ULL, 0x71110afcf95eed7eULL, 0xd2f32cff2f3206c4ULL,
     "156.44466349626072"},  // seed 81
    {0xf6dc6e1eaf10c4abULL, 0xc761f53b66a3e167ULL, 0xdce1f8e0363dd32aULL,
     "5.963309941545516"},  // seed 82
    {0xff18ff4c97c0e490ULL, 0x716f5238c7df340dULL, 0x32bfe0b4c824475dULL,
     "900"},  // seed 83
    {0x769d6dbabadb8acdULL, 0xceb5eaf511d7c71dULL, 0xcb2adf30ed699fa8ULL,
     "45.45081824768581"},  // seed 84
    {0xbd668c1798a4c8eeULL, 0x9e6dc0d4710b0a0fULL, 0x8d92a8fe5d9642efULL,
     "1350"},  // seed 85
    {0x916dbfdf37da7a04ULL, 0xb3672f360b526aefULL, 0x7592fc3fffce1321ULL,
     "900"},  // seed 86
    {0xd8f7d16cb627f388ULL, 0xaeb16d3ab7233064ULL, 0xd0bba73aff2e7708ULL,
     "120.61842135410785"},  // seed 87
    {0xedbacaca8a0441f5ULL, 0x1bf4a93e9a651775ULL, 0x4cc585330c569a30ULL,
     "32.331926680092806"},  // seed 88
    {0x8dd187e220ed5958ULL, 0x0fe22b52adadd41fULL, 0x171c1eef965f21d4ULL,
     "84.322979280902061"},  // seed 89
    {0x1661f4c42e4d1201ULL, 0x5ed01f2f5906eed2ULL, 0x1d686fe6ee9e6aa8ULL,
     "4.9927846576819732"},  // seed 90
    {0xc389b3992b1716dbULL, 0x112b773af84c64d1ULL, 0xc71fb91bf8ca6c03ULL,
     "900"},  // seed 91
    {0x8b02c98fe522afefULL, 0x36c10af4c6abc6ddULL, 0x35c82083f50dddd9ULL,
     "283.43804878326182"},  // seed 92
    {0xacb344815f48e050ULL, 0x266691a1b0efb14fULL, 0x9a86ac7527fe98dcULL,
     "900"},  // seed 93
    {0x5ba7963fb32d2648ULL, 0x5a01253765908d2eULL, 0x7e5bccd049dd05d2ULL,
     "900"},  // seed 94
    {0x8b3c1baf58745c48ULL, 0x9112a6c0ebb108daULL, 0xda6e281d6e838947ULL,
     "138"},  // seed 95
    {0x70b098574dbaf22fULL, 0x6e1a4f6a1380a81eULL, 0x743871ce77c4d028ULL,
     "5.8515904319878391"},  // seed 96
    {0x5d54e2869603d343ULL, 0x04ef3188fb957ae6ULL, 0x0a743a160029f897ULL,
     "21.672657061926028"},  // seed 97
    {0x38347db540c98938ULL, 0xa795488e1990dc03ULL, 0x7430b8dae5c1f53eULL,
     "1350"},  // seed 98
    {0x4b49ee30525708e8ULL, 0xacbc6a48272263c9ULL, 0x458724d5c53c5fc8ULL,
     "1350"},  // seed 99
    {0x4424db2dbd7f15a0ULL, 0xadc9fd81b023fa6bULL, 0x8f0b7b3ce02a9e57ULL,
     "122.96083222772248"},  // seed 100
};

TEST(ScenarioFingerprintGoldenTest, FuzzedScenariosMatchRecordedRunReports) {
  // For each fuzzed scenario, every observable of a full ELink run — the
  // serialized RunReport (every counter, histogram bucket and outcome
  // field), the message ledger, the clustering and the completion time —
  // must reproduce the recorded bytes.
  static_assert(std::size(kGoldenFingerprints) == 100);
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    Result<check::Scenario> s = check::MakeScenario(seed);
    ASSERT_TRUE(s.ok()) << "seed " << seed;
    const RunFingerprint fp = RunScenarioOnce(s.value());
    ASSERT_TRUE(fp.ok) << "seed " << seed;
    const GoldenFingerprint& want = kGoldenFingerprints[seed - 1];
    EXPECT_EQ(fp.report_hash, want.report_hash) << "seed " << seed;
    EXPECT_EQ(fp.stats_hash, want.stats_hash) << "seed " << seed;
    EXPECT_EQ(fp.clustering_hash, want.clustering_hash) << "seed " << seed;
    EXPECT_EQ(fp.completion_time, want.completion_time) << "seed " << seed;
  }
}

}  // namespace
}  // namespace elink
