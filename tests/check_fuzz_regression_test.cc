// Regression corpus for the scenario fuzzer (src/check): every seed that
// ever exposed a bug is pinned here as a named case, plus a smoke sweep per
// protocol so new regressions surface in ctest before the deep CI sweep.
//
// To reproduce any failure interactively:
//   bench/check_fuzz --seed=<S> --protocol=<P>
#include <gtest/gtest.h>

#include "check/runner.h"

namespace elink {
namespace check {
namespace {

// -- Pinned findings --------------------------------------------------------

TEST(CheckFuzzRegressionTest, MaintenanceDetachUnderLossSeed4) {
  // Found by check_fuzz: a node that detached (StartDetach) and whose probe
  // replies were then lost stayed a self-rooted singleton with the root-role
  // fields (announced_/stored_root_) never initialized; the next local
  // update crashed WeightedEuclidean on an empty feature.  Fixed by making
  // StartDetach set the root-role state immediately.
  const CheckOutcome out = RunScenario(Protocol::kMaintenance, 4);
  EXPECT_TRUE(out.ok()) << out.Summary();
}

TEST(CheckFuzzRegressionTest, MaintenanceDetachUnderLossSeed12) {
  // Second seed of the same StartDetach finding; kept because its fault mix
  // (truncation + loss) reaches the crash through the RootChanged path.
  const CheckOutcome out = RunScenario(Protocol::kMaintenance, 12);
  EXPECT_TRUE(out.ok()) << out.Summary();
}

TEST(CheckFuzzRegressionTest, MaintenanceMutualAdoptionCycleSeed412) {
  // Found by the churn-isolated sweep, but a pure legacy-path bug (the
  // minimal repro disables churn too): on a linear topology under async
  // delays, a root's feature push evicted node 1, whose re-probe read
  // neighbor 0's not-yet-updated stored root feature and re-adopted into
  // the stale cluster; node 0's own eviction then crossed node 1's Attach,
  // and 0 adopted 1 back — a parent 2-cycle disconnected from the real
  // tree, forwarding RootChanged to each other forever (event-cap
  // livelock).  Fixed three ways: the RootChanged idempotence guard is
  // unconditional, a node never adopts its own current child, and a
  // relabel that lands out of range evicts unconditionally.
  ScenarioKnobs knobs;
  knobs.faults = false;
  knobs.reliable = false;
  knobs.slack = false;
  const CheckOutcome out = RunScenario(Protocol::kMaintenance, 412, knobs);
  EXPECT_TRUE(out.ok()) << out.Summary();
}

TEST(CheckFuzzRegressionTest, MaintenanceStaleVerifiedBaselineSeeds) {
  // Found by the 1000-seed sweep in fire-front churn scenarios with crashes.
  // A member accepted a root push (or relabel) and stayed in range, but kept
  // the verified feature it had checked against the *old* root feature.
  // The A1/A2 shortcuts measure drift against that baseline, so once the
  // root had moved more than delta away from it, a later update back toward
  // the old baseline was absorbed silently while more than delta from the
  // root.  Fixed by re-verifying the current feature whenever an accepted
  // root feature leaves the old baseline out of range.  Each seed runs with
  // its full knobs and with its shrunk minimal knob set.
  const struct {
    uint64_t seed;
    const char* minimal_disable;
  } kCases[] = {
      {611, "faults,async,reliable,slack,wirefuzz,causal,serve"},
      {772, "faults,async,reliable,slack,wirefuzz,causal,serve"},
      {971, "faults,async,reliable,slack,topology,wirefuzz,causal,serve"},
  };
  for (const auto& c : kCases) {
    const CheckOutcome full = RunScenario(Protocol::kMaintenance, c.seed);
    EXPECT_TRUE(full.ok()) << "seed " << c.seed << ": " << full.Summary();
    const Result<ScenarioKnobs> knobs =
        ScenarioKnobs::FromDisableList(c.minimal_disable);
    ASSERT_TRUE(knobs.ok());
    const CheckOutcome minimal =
        RunScenario(Protocol::kMaintenance, c.seed, knobs.value());
    EXPECT_TRUE(minimal.ok()) << "seed " << c.seed << " (minimal): "
                              << minimal.Summary();
  }
}

TEST(CheckFuzzRegressionTest, ReliableRoutedSelfAckSeed62) {
  // Found by check_fuzz: ReliableChannel acked a routed self-delivery
  // (rel_from == from == self) with Network::Send(self, self), which fails
  // the HasEdge check — there is no self edge.  Fixed by routing the ack
  // whenever the originator is the receiving node itself.
  const CheckOutcome out = RunScenario(Protocol::kRangeQuery, 62);
  EXPECT_TRUE(out.ok()) << out.Summary();
}

TEST(CheckFuzzRegressionTest, ReliableRoutedSelfAckAllSeeds) {
  // The remaining seeds of the self-ack finding from the first 1000-seed
  // sweep; cheap enough to keep wholesale.
  const uint64_t kSeeds[] = {66,  99,  104, 108, 115, 129, 135, 217,
                             235, 237, 389, 449, 481, 483, 621, 634,
                             893, 931, 942, 962, 973, 984, 988};
  for (const uint64_t seed : kSeeds) {
    const CheckOutcome out = RunScenario(Protocol::kRangeQuery, seed);
    EXPECT_TRUE(out.ok()) << "seed " << seed << ": " << out.Summary();
  }
}

// -- Smoke sweeps -----------------------------------------------------------
//
// One hundred scenarios per protocol on every ctest run.  The CI check-fuzz
// job runs the same harness ten times deeper (bench/check_fuzz
// --scenarios=1000); these keep local runs honest.

class CheckFuzzSmokeTest : public ::testing::TestWithParam<Protocol> {};

TEST_P(CheckFuzzSmokeTest, HundredScenariosHoldAllInvariants) {
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    const CheckOutcome out = RunScenario(GetParam(), seed);
    EXPECT_TRUE(out.ok()) << "seed " << seed << ": " << out.Summary()
                          << "\n  repro: bench/check_fuzz --seed=" << seed
                          << " --protocol=" << ProtocolName(GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, CheckFuzzSmokeTest,
                         ::testing::ValuesIn(AllProtocols()),
                         [](const ::testing::TestParamInfo<Protocol>& info) {
                           return std::string(ProtocolName(info.param)) ==
                                          "range_query"
                                      ? "RangeQuery"
                                  : std::string(ProtocolName(info.param)) ==
                                          "path_query"
                                      ? "PathQuery"
                                  : std::string(ProtocolName(info.param)) ==
                                          "maintenance"
                                      ? "Maintenance"
                                      : "Elink";
                         });

}  // namespace
}  // namespace check
}  // namespace elink
