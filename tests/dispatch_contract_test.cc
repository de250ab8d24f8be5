// Dispatch contract of the four protocol node classes (ELink, maintenance,
// range query, path query).
//
// Each class routes a delivered frame to a handler through one switch on
// the message type.  A frame of a type the class does not handle, and a
// malformed frame of a type it does, must be counted in the network's
// decode errors and reach OnBadMessage, never a handler.  The probes are the
// real node classes over empty state (see proto::DispatchProbe): a handler
// that ran would act on a deployment that is not there and show up as a
// send, a timer or a crash.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/elink.h"
#include "cluster/elink_wire.h"
#include "cluster/maintenance_protocol.h"
#include "cluster/maintenance_wire.h"
#include "index/path_query_protocol.h"
#include "index/path_wire.h"
#include "index/query_protocol.h"
#include "index/query_wire.h"
#include "proto/codec.h"
#include "proto/node.h"
#include "sim/network.h"
#include "sim/topology.h"

namespace elink {
namespace {

/// A frame of schema M that Decode<M> must reject: a required int or fixed
/// double cut off the end (a truncated frame), or, for schemas without
/// either, one int more than the schema can carry.
template <class M>
Message MalformedFrame() {
  M blank{};
  Message msg = proto::Encode(blank);
  proto::internal::ShapeVisitor shape;
  blank.VisitFields(shape);
  if (shape.required_ints > 0) {
    msg.ints.pop_back();
  } else if (shape.fixed_doubles > 0) {
    msg.doubles.pop_back();
  } else {
    msg.ints.assign(shape.optional_ints + 1, 0);
  }
  EXPECT_FALSE(proto::Decode<M>(msg).ok()) << M::kCategory;
  return msg;
}

template <class... Schemas>
std::vector<Message> MalformedFrames() {
  return {MalformedFrame<Schemas>()...};
}

using ProbeFactory =
    std::function<std::unique_ptr<proto::ProtocolNode>(proto::BadMessageFn)>;

struct BadMessage {
  int from;
  int type;
  std::string error;
};

struct Delivery {
  std::vector<BadMessage> bad;
  uint64_t events = 0;
  uint64_t sends = 0;
  uint64_t decode_errors = 0;
};

/// Delivers `msg` from node 0 to a fresh probe at node 1 and reports what
/// the probe did with it.
Delivery DeliverToProbe(const ProbeFactory& make, const Message& msg) {
  Network net(MakeGridTopology(1, 2), Network::Config{});
  Delivery out;
  auto on_bad = [&out](int from, const Message& m, const Status& error) {
    out.bad.push_back({from, m.type, error.ToString()});
  };
  net.InstallNode(0, make(on_bad));
  net.InstallNode(1, make(on_bad));
  net.Send(0, 1, msg);
  out.events = net.Run();
  out.sends = net.stats().total_sends();
  out.decode_errors = net.stats().decode_errors(msg.category);
  return out;
}

struct NodeClass {
  const char* name;
  ProbeFactory make;
  std::vector<Message> malformed;  // One per handled type.
};

std::vector<NodeClass> NodeClasses() {
  namespace e = elink_wire;
  namespace m = maint_wire;
  namespace q = query_wire;
  namespace p = path_wire;
  return {
      {"elink", NewElinkDispatchProbe,
       MalformedFrames<e::Expand, e::Ack1, e::Nack, e::Ack2, e::Phase1,
                       e::Phase2, e::Start>()},
      {"maintenance", NewMaintenanceDispatchProbe,
       MalformedFrames<m::FetchUp, m::RootFeature, m::Push, m::Probe,
                       m::ProbeReply, m::Leave, m::Attach, m::Orphan,
                       m::RootChanged, m::EpochReport, m::VerifyAck,
                       m::VerifyGone>()},
      {"range_query", NewRangeQueryDispatchProbe,
       MalformedFrames<q::Up, q::ToBackboneRoot, q::Visit, q::BackboneInclude,
                       q::BackboneReply, q::Descend, q::DescendInclude,
                       q::DescendReply, q::Answer>()},
      {"path_query", NewPathQueryDispatchProbe,
       MalformedFrames<p::PathUp, p::PathRoute, p::PathVisit, p::PathDrill,
                       p::PathDrillDone, p::PathVisitDone>()},
  };
}

/// The probe took the frame to OnBadMessage and did nothing else: one
/// decode error under the frame's category, and no event or send beyond
/// the delivery itself.
void ExpectRejected(const Delivery& d, const Message& msg) {
  ASSERT_EQ(d.bad.size(), 1u);
  EXPECT_EQ(d.bad[0].from, 0);
  EXPECT_EQ(d.bad[0].type, msg.type);
  EXPECT_EQ(d.decode_errors, 1u);
  EXPECT_EQ(d.events, 1u);
  EXPECT_EQ(d.sends, 1u);
}

TEST(DispatchContractTest, MalformedFrameOfEveryHandledTypeIsRejected) {
  for (const NodeClass& node : NodeClasses()) {
    for (const Message& msg : node.malformed) {
      SCOPED_TRACE(std::string(node.name) + " " + msg.category);
      const Delivery d = DeliverToProbe(node.make, msg);
      ExpectRejected(d, msg);
      // Decode rejected it: the type has a handler.
      if (!d.bad.empty()) {
        EXPECT_EQ(d.bad[0].error.find("no handler"), std::string::npos)
            << d.bad[0].error;
      }
    }
  }
}

TEST(DispatchContractTest, FrameOfEveryOtherTypeIsUnhandled) {
  for (const NodeClass& node : NodeClasses()) {
    std::set<int> handled;
    for (const Message& msg : node.malformed) handled.insert(msg.type);
    for (int type = -1; type < 64; ++type) {
      if (handled.count(type) > 0) continue;
      SCOPED_TRACE(std::string(node.name) + " type " + std::to_string(type));
      Message msg;
      msg.type = type;
      msg.category = "foreign";
      const Delivery d = DeliverToProbe(node.make, msg);
      ExpectRejected(d, msg);
      if (!d.bad.empty()) {
        EXPECT_NE(d.bad[0].error.find("no handler for message type " +
                                      std::to_string(type)),
                  std::string::npos)
            << d.bad[0].error;
      }
    }
  }
}

}  // namespace
}  // namespace elink
