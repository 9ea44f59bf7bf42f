// The chaos runner: execute one (scenario, seed) deterministically, fan a
// scenario across many seeds on a thread pool, and shrink a failing fault
// schedule to a minimal one.
//
// Determinism contract: a run is a pure function of (scenario, seed) —
// every simulation owns its Simulator/Rng/Network, nothing is shared, so
// re-running any failing pair reproduces the identical event stream and
// trace hash. That also makes the seed sweep embarrassingly parallel.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <vector>

#include "chaos/invariants.h"
#include "chaos/scenario.h"
#include "net/bus.h"
#include "sim/trace.h"

namespace soda::chaos {

/// Extra checkers appended to InvariantSet::standard() for each run. A
/// factory (not a set) because every run needs fresh checker state.
using InvariantFactory =
    std::function<std::vector<std::unique_ptr<Invariant>>()>;

struct RunStats {
  std::uint64_t requests_issued = 0;
  std::uint64_t requests_completed = 0;  // terminal events, any status
  std::uint64_t ok_completions = 0;      // terminal status kCompleted
  std::uint64_t crashed_completions = 0;
  std::uint64_t timedout_completions = 0;  // retry budget exhausted
  /// Sequenced frames the Delta-t machinery re-answered from connection
  /// state instead of redelivering (stats::Counter::kDuplicatesSuppressed
  /// summed over all nodes) — one of the protocol statistics the fleet
  /// harness cross-checks between real and simulated runs.
  std::uint64_t duplicates_suppressed = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_lost = 0;
  std::uint64_t frames_duplicated = 0;
  std::uint64_t events = 0;  // trace events recorded
};

/// Pinned-trace-hash epoch. Every chaos run partitions the simulator (by
/// segment, or by node on a single bus) and executes the epoch-2 window
/// protocol: partition-local RNG streams split from the root seed,
/// receiver-side bus fault draws, per-serial unique-id sequences, and
/// barrier-merged traces. Epoch 1 was the retired shared-stream serial
/// engine; its pinned hashes are not comparable to epoch-2 ones, which is
/// why chaos/bench JSONL rows carry this number.
inline constexpr int kHashEpoch = 2;

/// The epoch-2 partition rule every run uses (run_scenario and
/// scale::run_harness): one partition wheel per bus segment, or one per
/// node on a single bus. Every cross-partition edge is then a bus delivery
/// or a gateway hold, both at least the declared lookahead.
inline int partition_count(int segments, int nodes) {
  return segments > 1 ? segments : std::max(1, nodes);
}

struct RunOptions {
  /// Retain the full event vector in RunResult (single-seed debugging;
  /// sweeps leave it off and rely on the streaming observer).
  bool keep_events = false;
};

struct RunResult {
  std::uint64_t seed = 0;
  std::uint64_t trace_hash = 0;
  /// Cross-partition schedules closer than the declared lookahead window
  /// (stays 0 for every shipped topology).
  std::uint64_t lookahead_violations = 0;
  RunStats stats;
  std::vector<Violation> violations;
  /// Non-fatal configuration diagnostics — e.g. a timer-skew pair outside
  /// the Delta-t at-most-once envelope (doc/OVERLOAD.md). The run still
  /// executes; an at-most-once violation that follows is expected.
  std::vector<std::string> warnings;
  std::vector<sim::TraceEvent> events;  // populated iff keep_events

  bool ok() const { return violations.empty(); }
};

/// Compile the scenario's link faults — loss, partition, corruption,
/// delay and duplicate windows — that apply to segment `segment` into one
/// bus fault hook (Bus::set_faults). A fault with `segment < 0` applies
/// to every segment. Returns an empty hook, a perfect medium, when no
/// window applies.
net::FaultHook link_faults(const Scenario& s, int segment);

/// Execute one deterministic run.
RunResult run_scenario(const Scenario& scenario, std::uint64_t seed,
                       const InvariantFactory& extra = nullptr,
                       const RunOptions& options = {});

struct SweepOptions {
  std::uint64_t first_seed = 1;
  int seeds = 100;
  int jobs = 0;           // 0 = hardware_concurrency
  int max_failures = 16;  // stop launching new runs once collected
  /// Per-run options applied to every seed in the sweep.
  RunOptions run;
  /// Called (serialized) as each failure surfaces — lets the CLI stream.
  std::function<void(const RunResult&)> on_failure;
};

struct SweepResult {
  int ran = 0;
  std::vector<RunResult> failures;  // sorted by seed
  bool ok() const { return failures.empty(); }
};

/// Fan `scenario` across seeds [first_seed, first_seed + seeds) on a
/// thread pool. Each run is independent; results are deterministic per
/// (scenario, seed) regardless of thread count.
SweepResult sweep_scenario(const Scenario& scenario,
                           const SweepOptions& options,
                           const InvariantFactory& extra = nullptr);

/// Greedily remove faults from a failing (scenario, seed) while the run
/// keeps violating at least one of the originally-violated invariants.
/// Returns the scenario unchanged when the pair doesn't fail. `runs_used`
/// (optional) reports how many candidate runs the search spent.
Scenario shrink_failure(const Scenario& scenario, std::uint64_t seed,
                        const InvariantFactory& extra = nullptr,
                        int* runs_used = nullptr);

/// FNV-1a accumulation of one trace event into `h`; fold events in order
/// starting from kTraceHashSeed to fingerprint a whole run. Inline: this
/// runs once per trace event inside the observer, where the serial
/// multiply chain is the cost — the call overhead need not be paid on top.
inline constexpr std::uint64_t kTraceHashSeed = 1469598103934665603ull;

namespace fnv_detail {

inline constexpr std::uint64_t kPrime = 1099511628211ull;

/// kPrime^k for k = 0..8.
inline constexpr auto kPrimePow = [] {
  std::array<std::uint64_t, 9> p{};
  p[0] = 1;
  for (std::size_t k = 1; k < p.size(); ++k) p[k] = p[k - 1] * kPrime;
  return p;
}();

/// Folding the eight bytes of an all-ones word is h * kPrime^8 + kOnes[h &
/// 0xff]: each step h = (h ^ 0xff) * kPrime adds a term that depends only
/// on the low byte of h, and the next low byte is a function of that low
/// byte alone (the low byte of a product depends only on the low bytes of
/// its factors).
inline constexpr auto kOnes = [] {
  std::array<std::uint64_t, 256> t{};
  for (std::uint64_t x = 0; x < t.size(); ++x) {
    std::uint64_t h = x;
    for (int i = 0; i < 8; ++i) h = (h ^ 0xff) * kPrime;
    t[x] = h - x * kPrimePow[8];
  }
  return t;
}();

}  // namespace fnv_detail

/// FNV-1a over the eight little-endian bytes of `v`, bit-identical to the
/// byte-at-a-time loop (tests/test_trace_hash.cc keeps that reference).
/// Trace fields are mostly small or the -1 "n/a" sentinel, so two
/// shortcuts carry most of them: k trailing zero bytes leave h ^ 0 == h,
/// i.e. fold to one multiply by kPrime^k, and -1 folds through kOnes.
inline std::uint64_t fnv_u64(std::uint64_t h, std::uint64_t v) {
  using namespace fnv_detail;
  if (v == ~std::uint64_t{0}) return h * kPrimePow[8] + kOnes[h & 0xff];
  const int bytes = (std::bit_width(v) + 7) / 8;
  for (int i = 0; i < bytes; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= kPrime;
  }
  return h * kPrimePow[static_cast<std::size_t>(8 - bytes)];
}

inline std::uint64_t hash_event(std::uint64_t h, const sim::TraceEvent& e) {
  h = fnv_u64(h, static_cast<std::uint64_t>(e.at));
  h = fnv_u64(h, static_cast<std::uint64_t>(e.category));
  h = fnv_u64(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(e.node)));
  h = fnv_u64(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(e.peer)));
  h = fnv_u64(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(e.tid)));
  h = fnv_u64(h,
              static_cast<std::uint64_t>(static_cast<std::int64_t>(e.pattern)));
  h = fnv_u64(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(e.size)));
  h = fnv_u64(h, static_cast<std::uint64_t>(e.sections));
  h = fnv_u64(h, static_cast<std::uint64_t>(e.status));
  h = fnv_u64(h, static_cast<std::uint64_t>(e.detail_i64(-1)));
  return h;
}

}  // namespace soda::chaos
