// Pinned-trace-hash determinism suite.
//
// The acceptance contract for simulation-engine changes (timer wheel,
// frame pooling, callback storage — doc/PERFORMANCE.md §3) is that
// `trace_hash` stays bit-identical for fixed seeds: pop order is a pure
// function of (time, schedule-sequence), RNG draws are consumed in the
// same order, and trace records carry the same payloads. These tests pin
// the epoch-2 hashes the serial windowed reference produces for the
// committed builtin scenarios and the fixed-seed scaling harness. If an
// engine change moves ANY of these values it reordered same-instant
// events, perturbed an RNG stream, or altered a trace payload — all
// bugs, even when every workload still completes.
//
// When a *protocol* change legitimately alters traffic, regenerate with:
//   build/tools/soda_chaos --scenario <name> --seed <seed>
// and update the table in the same commit that changed the protocol.
#include <gtest/gtest.h>

#include <cstdint>

#include "chaos/runner.h"
#include "chaos/scenario.h"
#include "scale/harness.h"

using namespace soda;
using namespace soda::chaos;

namespace {

struct PinnedHash {
  const char* scenario;
  std::uint64_t seed;
  std::uint64_t hash;
};

// Hash epoch 2 (chaos::kHashEpoch): every chaos run now partitions the
// simulator and executes the conservative window protocol with
// partition-local RNG streams split from the root seed, receiver-side
// bus fault draws, per-serial unique-id sequences, and barrier-merged
// traces. That deliberately retired every epoch-1 hash (the shared
// serial RNG stream was the wall that forced serial execution —
// doc/PERFORMANCE.md §5); the values below were re-pinned once, under
// the PR that broke the wall, by running
//   build/tools/soda_chaos --scenario <name> --seed <seed>
// with the windowed engine.
constexpr PinnedHash kPinned[] = {
    {"scale_32", 1, 0xfc83ced497af9ebdull},
    {"scale_32", 2, 0x64401129ab0b6265ull},
    {"scale_32", 7, 0x217d07299c34959aull},
    {"scale_32", 42, 0xd0713a038e8afd2bull},
    {"overload", 1, 0x10352fc5f80e9c44ull},
    {"overload", 2, 0x2c55906e1e3e6b99ull},
    {"overload", 7, 0x3e42bdbef339150full},
    {"overload", 42, 0xd1cf486f4e5abb92ull},
    {"regression", 1, 0x4b43de45a33ad8bcull},
    {"regression", 2, 0x5cec126f9e72b3acull},
    {"regression", 7, 0x003aef47928fbdaaull},
    {"regression", 42, 0x06d75a3d8fd94a67ull},
    {"pool_failover", 1, 0xcde64934222f6395ull},
    {"pool_failover", 2, 0x780a2a70b6da36a7ull},
    {"pool_failover", 7, 0xc342c0fd96af3c3bull},
    {"pool_failover", 42, 0x5f4abec3c0cff61cull},
    {"inet_smoke", 1, 0x2d2465f037ef09b3ull},
    {"inet_smoke", 2, 0xc3200a303a6210faull},
    {"inet_smoke", 7, 0xda9ab771ec47b666ull},
    {"inet_smoke", 42, 0xd0571269f973e71eull},
    {"inet_partition", 1, 0x53aa2caa4a292cd7ull},
    {"inet_partition", 2, 0x032981ff14d69391ull},
    {"inet_partition", 7, 0xa01ac87fa646ffa0ull},
    {"inet_partition", 42, 0x36bbdbf2c27c353dull},
    {"gateway_flap", 1, 0xa82d5e62f921073bull},
    {"gateway_flap", 2, 0xccd0777d194592beull},
    {"gateway_flap", 7, 0x2cb117f72495822aull},
    {"gateway_flap", 42, 0x0ee9b1b74a0976d2ull},
    {"inet_asymmetric", 1, 0xc4fbd01107275b01ull},
    {"inet_asymmetric", 2, 0x05b1a8ef1a634b54ull},
    {"inet_asymmetric", 7, 0x3559857482bf84fcull},
    {"inet_asymmetric", 42, 0xd13603455b317218ull},
    {"inet_skew", 1, 0xb91b1b24c781db65ull},
    {"inet_skew", 2, 0x62f692bdf3d73f8dull},
    {"inet_skew", 7, 0xd0a5102bf86a1403ull},
    {"inet_skew", 42, 0x788d5a115353f820ull},
};

TEST(PinnedDeterminism, BuiltinScenarioHashesUnchangedAcrossEngines) {
  for (const PinnedHash& p : kPinned) {
    auto s = builtin_scenario(p.scenario);
    ASSERT_TRUE(s.has_value()) << p.scenario;
    auto r = run_scenario(*s, p.seed);
    EXPECT_EQ(r.trace_hash, p.hash)
        << p.scenario << " seed " << p.seed
        << ": the engine changed pop order, an RNG stream, or a trace "
           "payload (doc/PERFORMANCE.md determinism contract)";
  }
}

TEST(PinnedDeterminism, ScaleHarnessHashStableAcrossRepeats) {
  // The 64-node contention harness run is the bench workhorse; its hash
  // must be a pure function of the options. (The absolute value is pinned
  // indirectly: EXPERIMENTS.md records it for the PR that introduced the
  // wheel; asserting repeat-stability here keeps the test valid when a
  // protocol change legitimately shifts traffic.)
  scale::HarnessOptions o;
  o.workload = scale::Workload::kContention;
  o.nodes = 24;  // small enough for a unit test, same machinery as 64
  o.ops_per_client = 6;
  o.seed = 5;
  auto a = scale::run_harness(o);
  auto b = scale::run_harness(o);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.frames_sent, b.frames_sent);
  EXPECT_EQ(a.lookahead_violations, 0u);
  EXPECT_EQ(a.violations, 0u) << a.first_violation;
}

}  // namespace
