// Tier-1 coverage for the soda::chaos scenario engine: the bundled smoke
// scenario holds every standard invariant across a seed sweep, runs are
// bit-deterministic per (scenario, seed), a deliberately broken checker is
// caught (the engine actually looks at the trace), the shrinker strips
// faults irrelevant to a violation, the JSONL scenario format
// round-trips, and every scenarios/*.json file is its builtin.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/invariants.h"
#include "chaos/runner.h"
#include "chaos/scenario.h"

namespace soda::chaos {
namespace {

std::string first_violation(const std::vector<Violation>& vs) {
  if (vs.empty()) return "(none)";
  return vs.front().invariant + ": " + vs.front().detail;
}

TEST(ChaosRunner, SmokeScenarioHoldsStandardInvariants) {
  auto smoke = builtin_scenario("smoke");
  ASSERT_TRUE(smoke.has_value());
  SweepOptions opts;
  opts.first_seed = 1;
  opts.seeds = 50;
  opts.jobs = 4;
  auto sweep = sweep_scenario(*smoke, opts);
  EXPECT_EQ(sweep.ran, 50);
  ASSERT_TRUE(sweep.ok())
      << "seed " << sweep.failures.front().seed << " violated "
      << first_violation(sweep.failures.front().violations);
}

TEST(ChaosRunner, RunsAreBitDeterministic) {
  auto smoke = builtin_scenario("smoke");
  ASSERT_TRUE(smoke.has_value());
  auto a = run_scenario(*smoke, 14);
  auto b = run_scenario(*smoke, 14);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_EQ(a.stats.events, b.stats.events);
  EXPECT_EQ(a.stats.requests_completed, b.stats.requests_completed);
  EXPECT_EQ(a.stats.frames_sent, b.stats.frames_sent);
  // A different seed must explore a different schedule.
  auto c = run_scenario(*smoke, 15);
  EXPECT_NE(a.trace_hash, c.trace_hash);
}

TEST(ChaosRunner, RunProducesTraffic) {
  auto smoke = builtin_scenario("smoke");
  ASSERT_TRUE(smoke.has_value());
  auto r = run_scenario(*smoke, 3, nullptr, RunOptions{.keep_events = true});
  EXPECT_GT(r.stats.requests_issued, 0u);
  EXPECT_GT(r.stats.deliveries, 0u);
  EXPECT_GT(r.stats.frames_lost, 0u);  // smoke schedules a loss window
  EXPECT_EQ(r.stats.events, r.events.size());
}

/// A checker that is wrong on purpose: it claims the very first completed
/// request is a violation. If the engine wires observers correctly, every
/// seed must report it.
class AlwaysTrips final : public Invariant {
 public:
  std::string_view name() const override { return "always-trips"; }
  void on_event(const sim::TraceEvent& e) override {
    if (!fired_ && e.category == sim::TraceCategory::kRequestCompleted) {
      fired_ = true;
      fail(e.at, "deliberately broken checker");
    }
  }

 private:
  bool fired_ = false;
};

InvariantFactory broken_factory() {
  return [] {
    std::vector<std::unique_ptr<Invariant>> extra;
    extra.push_back(std::make_unique<AlwaysTrips>());
    return extra;
  };
}

TEST(ChaosRunner, BrokenInvariantIsCaught) {
  auto smoke = builtin_scenario("smoke");
  ASSERT_TRUE(smoke.has_value());
  auto r = run_scenario(*smoke, 7, broken_factory());
  ASSERT_FALSE(r.ok());
  bool found = false;
  for (const auto& v : r.violations) {
    if (v.invariant == "always-trips") found = true;
  }
  EXPECT_TRUE(found) << first_violation(r.violations);

  SweepOptions opts;
  opts.seeds = 5;
  opts.jobs = 2;
  auto sweep = sweep_scenario(*smoke, opts, broken_factory());
  EXPECT_EQ(static_cast<int>(sweep.failures.size()), 5);
}

TEST(ChaosRunner, ShrinkerStripsIrrelevantFaults) {
  // The violation fires regardless of the fault schedule, so a greedy
  // shrink must strip every fault from the scenario.
  auto smoke = builtin_scenario("smoke");
  ASSERT_TRUE(smoke.has_value());
  ASSERT_FALSE(smoke->faults.empty());
  int runs = 0;
  auto minimal = shrink_failure(*smoke, 7, broken_factory(), &runs);
  EXPECT_TRUE(minimal.faults.empty());
  EXPECT_GT(runs, 0);
  // A passing (scenario, seed) pair comes back untouched.
  auto untouched = shrink_failure(*smoke, 7);
  EXPECT_EQ(untouched.faults.size(), smoke->faults.size());
}

/// Sweep a builtin scenario across 200 seeds and demand a clean bill.
void sweep_200(const char* name) {
  auto s = builtin_scenario(name);
  ASSERT_TRUE(s.has_value()) << name;
  SweepOptions opts;
  opts.first_seed = 1;
  opts.seeds = 200;
  auto sweep = sweep_scenario(*s, opts);
  EXPECT_EQ(sweep.ran, 200) << name;
  ASSERT_TRUE(sweep.ok())
      << name << " seed " << sweep.failures.front().seed << " violated "
      << first_violation(sweep.failures.front().violations);
}

TEST(ChaosScenarioLibrary, AsymmetricPartitionHolds200Seeds) {
  sweep_200("asymmetric_partition");
}

TEST(ChaosScenarioLibrary, CrashDuringBootHolds200Seeds) {
  sweep_200("crash_during_boot");
}

// skew_extreme sits at the edge of the Delta-t drift envelope
// (record_lifetime / retransmit_span ~= 1.23x relative clock rate); see
// the builtin's comment — beyond that ratio duplicate deliveries are the
// *expected* protocol failure mode, so this sweep doubles as a regression
// guard that the builtin stays inside the documented envelope.
TEST(ChaosScenarioLibrary, SkewExtremeHolds200Seeds) {
  sweep_200("skew_extreme");
}

TEST(ChaosScenarioLibrary, OverloadHolds200Seeds) {
  sweep_200("overload");
}

// pool_failover: the load clients address the 4-server anycast pool while
// two members crash mid-storm and a partition hides a third. Kernel-side
// member tracking must route around the casualties without tripping any
// standard invariant.
TEST(ChaosScenarioLibrary, PoolFailoverHolds200Seeds) {
  sweep_200("pool_failover");
}

// A single run on record: the pool keeps serving through the member
// crashes (plenty of completions), and at least one in-flight request
// died with a crashed member — i.e. the scenario really exercises the
// failover path, not just a quiet pool.
TEST(ChaosScenarioLibrary, PoolFailoverRoutesAroundCrashes) {
  auto s = builtin_scenario("pool_failover");
  ASSERT_TRUE(s.has_value());
  EXPECT_TRUE(s->anycast);
  auto r = run_scenario(*s, 3);
  EXPECT_TRUE(r.violations.empty())
      << first_violation(r.violations);
  EXPECT_GT(r.stats.requests_completed, 100u);
  EXPECT_GT(r.stats.crashed_completions, 0u);
}

// The rejected configuration behind the envelope rule: crank the
// skew_extreme factors from the documented ~1.2x edge to 3x/0.33x and the
// runner must (a) warn at construction that the pair is outside the
// at-most-once envelope and (b) still execute — where the duplicate
// delivery the warning predicts shows up within a short sweep (seed 27
// was the original reproduction).
TEST(ChaosScenarioLibrary, SkewBeyondEnvelopeWarnsAndDuplicates) {
  auto s = builtin_scenario("skew_extreme");
  ASSERT_TRUE(s.has_value());
  for (Fault& f : s->faults) {
    if (f.kind != FaultKind::kTimerSkew) continue;
    f.factor = f.factor > 1.0 ? 3.0 : 0.33;
  }
  auto r = run_scenario(*s, 27);
  ASSERT_FALSE(r.warnings.empty());
  EXPECT_NE(r.warnings.front().find("at-most-once envelope"),
            std::string::npos);

  SweepOptions opts;
  opts.first_seed = 1;
  opts.seeds = 40;
  auto sweep = sweep_scenario(*s, opts);
  bool duplicate_seen = false;
  for (const auto& fail : sweep.failures) {
    for (const auto& v : fail.violations) {
      duplicate_seen |= v.invariant == "at-most-once-delivery";
    }
  }
  EXPECT_TRUE(duplicate_seen)
      << "3x relative skew should break at-most-once within 40 seeds";
}

TEST(ChaosScenarioLibrary, InEnvelopeSkewDoesNotWarn) {
  auto s = builtin_scenario("skew_extreme");
  ASSERT_TRUE(s.has_value());
  auto r = run_scenario(*s, 1);
  EXPECT_TRUE(r.warnings.empty())
      << "the builtin rides the documented edge and must stay inside it: "
      << r.warnings.front();
}

TEST(ChaosScenario, JsonlRoundTripsEveryBuiltin) {
  for (const auto& name : builtin_scenario_names()) {
    auto s = builtin_scenario(name);
    ASSERT_TRUE(s.has_value()) << name;
    auto parsed = scenario_from_jsonl(to_jsonl(*s));
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, *s) << name;
  }
}

// CI sweeps the scenarios/*.json files while tier-1 and perfbench run the
// builtins: each file must parse to exactly the builtin of its name.
TEST(ChaosScenario, EveryScenarioFileIsItsBuiltin) {
  int files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(SODA_SCENARIO_DIR)) {
    if (entry.path().extension() != ".json") continue;
    ++files;
    const std::string name = entry.path().stem().string();
    std::ifstream in(entry.path());
    std::stringstream text;
    text << in.rdbuf();
    const auto parsed = scenario_from_jsonl(text.str());
    ASSERT_TRUE(parsed.has_value()) << name;
    const auto builtin = builtin_scenario(name);
    ASSERT_TRUE(builtin.has_value()) << name;
    EXPECT_EQ(*parsed, *builtin) << name;
  }
  EXPECT_GT(files, 0);
}

TEST(ChaosScenario, JsonlRejectsGarbage) {
  EXPECT_FALSE(scenario_from_jsonl("not json").has_value());
  EXPECT_FALSE(scenario_from_jsonl("").has_value());
}

TEST(ChaosScenario, BuilderChainsFaults) {
  Scenario s;
  s.nodes = 3;
  s.lose(0.2, 1000, 2000)
      .duplicate(0.1)
      .partition(0b001, 500, 1500)
      .crash(0, 1000, 200)
      .skew_timers(2, 1.5);
  ASSERT_EQ(s.faults.size(), 5u);
  EXPECT_EQ(s.faults[0].kind, FaultKind::kLoss);
  EXPECT_EQ(s.window_end(s.faults[1]), s.duration);  // open window
  EXPECT_EQ(s.faults[3].reboot_after, 200);
}

}  // namespace
}  // namespace soda::chaos
