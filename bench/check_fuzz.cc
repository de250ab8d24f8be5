// Deterministic scenario fuzzer for the whole stack (src/check).
//
// Runs N seeded scenarios per protocol, evaluating every applicable
// invariant checker on each (see src/check/runner.h for the check matrix).
// On failure it prints the violations, a one-command repro, and — after
// greedily shrinking the scenario knobs — the minimal failing repro.
//
//   check_fuzz                                  # 100 scenarios x 4 protocols
//   check_fuzz --scenarios=1000 --threads=8     # CI configuration
//   check_fuzz --seed=1234 --protocol=elink     # reproduce one failure
//   check_fuzz --seed=1234 --protocol=elink --disable=faults,slack
//
// Output is byte-identical for any --threads value: trials run in parallel
// but results are kept in per-index slots and printed in index order.  Each
// protocol's summary line ends in an FNV-1a digest over every trial's
// RunReport JSON in seed order, so two builds' logs compare outcomes, not
// only pass counts.
// Exits 1 when any trial fails, 0 otherwise.
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "check/runner.h"
#include "check/scenario.h"

namespace elink {
namespace check {
namespace {

struct TrialSlot {
  Protocol protocol = Protocol::kElink;
  uint64_t seed = 0;
  bool ok = true;
  std::vector<CheckViolation> violations;
  std::string describe;
  std::vector<std::string> reports;
};

uint64_t Fnv1a(uint64_t h, const std::string& bytes) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string ReproLine(Protocol protocol, uint64_t seed,
                      const ScenarioKnobs& knobs) {
  std::string line = "bench/check_fuzz --seed=" + std::to_string(seed) +
                     " --protocol=" + ProtocolName(protocol);
  const std::string disabled = knobs.DisableList();
  if (!disabled.empty()) line += " --disable=" + disabled;
  return line;
}

int Main(int argc, char** argv) {
  using bench::StringFlag;
  const int threads = bench::ThreadsFromArgs(argc, argv);

  const std::string seed_flag = StringFlag(argc, argv, "--seed");
  uint64_t seed_start =
      std::strtoull(StringFlag(argc, argv, "--seed-start", "1").c_str(),
                    nullptr, 10);
  int scenarios =
      std::atoi(StringFlag(argc, argv, "--scenarios", "100").c_str());
  if (!seed_flag.empty()) {
    // Single-seed repro mode.
    seed_start = std::strtoull(seed_flag.c_str(), nullptr, 10);
    scenarios = 1;
  }
  if (scenarios < 1) {
    std::fprintf(stderr, "--scenarios must be >= 1\n");
    return 2;
  }

  const std::string protocol_flag =
      StringFlag(argc, argv, "--protocol", "all");
  std::vector<Protocol> protocols;
  if (protocol_flag == "all") {
    protocols = AllProtocols();
  } else {
    Result<Protocol> parsed = ProtocolFromName(protocol_flag);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
      return 2;
    }
    protocols.push_back(parsed.value());
  }

  Result<ScenarioKnobs> knobs_or =
      ScenarioKnobs::FromDisableList(StringFlag(argc, argv, "--disable"));
  if (!knobs_or.ok()) {
    std::fprintf(stderr, "%s\n", knobs_or.status().ToString().c_str());
    return 2;
  }
  const ScenarioKnobs knobs = knobs_or.value();

  const int total = static_cast<int>(protocols.size()) * scenarios;
  std::printf("check_fuzz: %d scenario(s) x %zu protocol(s), seeds %" PRIu64
              "..%" PRIu64 "%s\n",
              scenarios, protocols.size(), seed_start,
              seed_start + static_cast<uint64_t>(scenarios) - 1,
              knobs.DisableList().empty()
                  ? ""
                  : (" (disabled: " + knobs.DisableList() + ")").c_str());

  // Parallel phase: every (protocol, seed) trial into its own slot.
  std::vector<TrialSlot> slots(total);
  bench::ParallelTrialRunner runner(threads);
  runner.Run(total, [&](int i) {
    TrialSlot& slot = slots[i];
    slot.protocol = protocols[i / scenarios];
    slot.seed = seed_start + static_cast<uint64_t>(i % scenarios);
    TrialArtifacts artifacts;
    CheckOutcome outcome =
        RunScenario(slot.protocol, slot.seed, knobs, &artifacts);
    slot.ok = outcome.ok();
    slot.reports = std::move(artifacts.reports);
    slot.violations = std::move(outcome.violations);
    slot.describe = outcome.scenario.Describe();
  });

  // Report phase: index order, so output never depends on --threads.
  int failures = 0;
  for (size_t p = 0; p < protocols.size(); ++p) {
    int ok_count = 0;
    uint64_t digest = 14695981039346656037ULL;
    for (int s = 0; s < scenarios; ++s) {
      const TrialSlot& slot = slots[p * scenarios + s];
      if (slot.ok) ++ok_count;
      for (const std::string& report : slot.reports) {
        digest = Fnv1a(digest, report);
      }
    }
    std::printf("  %-12s %d/%d ok  reports %016" PRIx64 "\n",
                ProtocolName(protocols[p]), ok_count, scenarios, digest);
    failures += scenarios - ok_count;
  }
  if (failures == 0) {
    std::printf("check_fuzz: all %d trial(s) passed\n", total);
    return 0;
  }

  // Failure detail + serial shrink (determinism matters more than speed on
  // the failure path, and shrinking re-runs trials many times).
  std::printf("check_fuzz: %d trial(s) FAILED\n", failures);
  for (const TrialSlot& slot : slots) {
    if (slot.ok) continue;
    std::printf("\nFAIL %s seed=%" PRIu64 "\n  scenario: %s\n",
                ProtocolName(slot.protocol), slot.seed,
                slot.describe.c_str());
    for (const CheckViolation& v : slot.violations) {
      std::printf("  violation [%s]: %s\n", v.check.c_str(),
                  v.detail.c_str());
    }
    std::printf("  repro:    %s\n",
                ReproLine(slot.protocol, slot.seed, knobs).c_str());
    const ScenarioKnobs minimal =
        ShrinkFailure(slot.protocol, slot.seed, knobs);
    std::printf("  minimal:  %s\n",
                ReproLine(slot.protocol, slot.seed, minimal).c_str());
  }
  return 1;
}

}  // namespace
}  // namespace check
}  // namespace elink

int main(int argc, char** argv) { return elink::check::Main(argc, argv); }
