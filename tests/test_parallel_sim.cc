// Differential proof of the partitioned window protocol.
//
// Epoch 2 (doc/PERFORMANCE.md §5): the partitioned Simulator executes
// lookahead windows — each partition's events run independently inside a
// window against partition-local state (wheel, RNG stream, trace buffer),
// and cross-partition schedules/cancels are staged and applied at the
// commit barrier.
//
// The proof is differential:
//   1. a naive std::priority_queue reference model ordered by (time, seq)
//      — small enough to be obviously correct — pins the unpartitioned
//      wheel and the 1-partition windowed walk, including the wheel's
//      edge cases (past-due scheduling, overflow-list rebasing, cancels
//      of already-fired events, double cancels);
//   2. seed-randomized schedule/cancel/run_until storms hold the
//      multi-partition windowed walk to the reference's events and firing
//      times at width-1 windows, and make wider windows exercise the
//      staged-violation clamp;
//   3. fault injection pins the staged-violation rule: a cross-partition
//      schedule under the declared lookahead is counted AND lands exactly
//      at the next window boundary.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/simulator.h"

using namespace soda;

namespace {

// ---------------------------------------------------------------------------
// Reference model: a (time, seq) min-heap with lazy cancellation. No
// wheel, no cascading, no partitions — if the real engines disagree with
// this, they are wrong.
class RefEngine {
 public:
  std::uint64_t schedule(sim::Time at, std::function<void()> fn) {
    const std::uint64_t seq = seq_next_++;
    heap_.push(Ev{at, seq});
    fns_.emplace(seq, std::move(fn));
    return seq + 1;  // 0 stays the never-matches sentinel, like Simulator
  }

  void cancel(std::uint64_t id) {
    if (id == 0) return;
    fns_.erase(id - 1);
  }

  std::size_t run_until(sim::Time deadline) {
    std::size_t n = 0;
    while (!heap_.empty() && heap_.top().at <= deadline) {
      const Ev top = heap_.top();
      heap_.pop();
      auto it = fns_.find(top.seq);
      if (it == fns_.end()) continue;  // cancelled
      now_ = top.at;
      auto fn = std::move(it->second);
      fns_.erase(it);
      fn();
      ++n;
    }
    if (now_ < deadline) now_ = deadline;
    return n;
  }

  sim::Time now() const { return now_; }

 private:
  struct Ev {
    sim::Time at;
    std::uint64_t seq;
    bool operator>(const Ev& o) const {
      if (at != o.at) return at > o.at;
      return seq > o.seq;
    }
  };
  std::priority_queue<Ev, std::vector<Ev>, std::greater<Ev>> heap_;
  std::unordered_map<std::uint64_t, std::function<void()>> fns_;
  sim::Time now_ = 0;
  std::uint64_t seq_next_ = 0;
};

// The execution log one engine produces: which event fired and when.
// Engines agree iff logs agree.
struct Fired {
  int tag;
  sim::Time at;
  bool operator==(const Fired& o) const { return tag == o.tag && at == o.at; }
};

// Children derive their tag from the parent's instead of drawing from a
// shared counter, so a tag never depends on the order partitions execute
// in. Parent tags stay below the base, so derived tags are unique.
constexpr int kChildTagBase = 1'000'000;

// Deterministic op-sequence generator (private SplitMix64 so the test
// script never touches the simulators' RNG streams).
struct Script {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
};

// One randomized differential round: apply the identical op sequence to
// every engine under test.
//
// The generic driver sees an engine as three lambdas; `part`/`child_part`
// let the partitioned runs pin each schedule to a scripted wheel (the
// reference model ignores them). Events with tag % 3 == 0 schedule a
// child on execution — scheduling from inside a callback is where
// partition inheritance, the staging protocol, and the merge's
// executing-state bookkeeping earn their keep.
template <typename ScheduleFn, typename CancelFn, typename RunFn>
void drive(std::uint64_t seed, ScheduleFn schedule, CancelFn cancel,
           RunFn run_until) {
  Script rng{seed};
  std::vector<std::uint64_t> pending_ids;
  std::vector<std::uint64_t> fired_ids;
  sim::Time horizon = 0;
  int next_tag = 0;

  for (int round = 0; round < 20; ++round) {
    const int schedules = 4 + static_cast<int>(rng.next() % 12);
    for (int s = 0; s < schedules; ++s) {
      sim::Duration delay;
      switch (rng.next() % 8) {
        case 0: delay = 0; break;  // past-due: fires at the current time
        // Far future: beyond the wheel's direct horizon (6 levels x 6
        // bits = 2^36 us), so it parks in the overflow list and a later
        // advance must rebase it back into the wheel.
        case 1: delay = (1ll << 36) + static_cast<sim::Duration>(
                            rng.next() % 1000); break;
        default: delay = static_cast<sim::Duration>(rng.next() % 5000);
      }
      const int tag = next_tag++;
      const int part = static_cast<int>(rng.next() % 4);
      const int child_part = static_cast<int>(rng.next() % 4);
      std::uint64_t id = schedule(delay, tag, part,
                                  /*spawn_child=*/tag % 3 == 0, child_part);
      pending_ids.push_back(id);
    }
    // Cancels: some pending, some already fired (must be no-ops), and an
    // occasional double cancel.
    const int cancels = static_cast<int>(rng.next() % 4);
    for (int c = 0; c < cancels && !pending_ids.empty(); ++c) {
      const std::size_t i = rng.next() % pending_ids.size();
      cancel(pending_ids[i]);
      if (rng.next() % 3 == 0) cancel(pending_ids[i]);  // double cancel
      pending_ids.erase(pending_ids.begin() +
                        static_cast<std::ptrdiff_t>(i));
    }
    if (!fired_ids.empty() && rng.next() % 2 == 0) {
      cancel(fired_ids[rng.next() % fired_ids.size()]);  // cancel-after-fire
    }
    // Advance. Every few rounds leap past the overflow horizon so the
    // far-future events come due and the wheels rebase.
    if (round % 7 == 6) {
      horizon += (1ll << 36) + 5000;
    } else {
      horizon += static_cast<sim::Duration>(rng.next() % 4000);
    }
    run_until(horizon);
    // Everything logged so far has fired; remember ids for the
    // cancel-after-fire edge. (Approximation: treat all issued ids as
    // fair game — a cancel of a still-pending id is also exercised
    // above, and the scripts stay identical across engines either way.)
    fired_ids = pending_ids;
  }
  run_until(horizon + (1ll << 37));  // drain everything, rebase included
}

// Adapter glue. The scheduled callback is the same everywhere: log the
// tag, optionally spawn a child 17 us out.
std::vector<Fired> drive_ref(std::uint64_t seed) {
  RefEngine eng;
  std::vector<Fired> log;
  drive(
      seed,
      [&eng, &log](sim::Duration delay, int tag, int /*part*/,
                   bool spawn_child, int /*child_part*/) {
        const sim::Time at = eng.now() + delay;
        return eng.schedule(at, [&eng, &log, tag, spawn_child]() {
          log.push_back(Fired{tag, eng.now()});
          if (spawn_child) {
            eng.schedule(eng.now() + 17, [&eng, &log, tag]() {
              log.push_back(Fired{kChildTagBase + tag, eng.now()});
            });
          }
        });
      },
      [&eng](std::uint64_t id) { eng.cancel(id); },
      [&eng](sim::Time t) { eng.run_until(t); });
  return log;
}

// A partitioned run's observable result: one execution log per partition,
// because the partition is the epoch-2 unit of determinism.
struct SimRun {
  std::vector<std::vector<Fired>> logs;
  std::uint64_t violations = 0;
};

SimRun drive_sim(std::uint64_t seed, int partitions, sim::Duration lookahead) {
  sim::Simulator s;
  if (partitions > 0) {
    s.enable_partitions(partitions);
    s.set_lookahead(lookahead);
  }
  SimRun run;
  run.logs.resize(partitions > 0 ? static_cast<std::size_t>(partitions) : 1);
  auto& logs = run.logs;
  auto schedule = [&s, &logs, partitions](sim::Duration delay, int tag,
                                          int part, bool spawn_child,
                                          int child_part) {
    sim::ScopedPartition guard(s, partitions > 0 ? part % partitions : 0);
    return s.after(delay, [&s, &logs, tag, spawn_child, child_part,
                           partitions]() {
      logs[static_cast<std::size_t>(s.current_partition())].push_back(
          Fired{tag, s.now()});
      if (spawn_child) {
        sim::ScopedPartition to_child(
            s, partitions > 0 ? child_part % partitions : 0);
        s.after(17, [&s, &logs, tag]() {
          logs[static_cast<std::size_t>(s.current_partition())].push_back(
              Fired{kChildTagBase + tag, s.now()});
        });
      }
    });
  };
  auto cancel = [&s](std::uint64_t id) { s.cancel(id); };
  drive(seed, schedule, cancel, [&s](sim::Time t) { s.run_until(t); });
  run.violations = s.lookahead_violations();
  return run;
}

std::vector<Fired> sorted_by_time_and_tag(std::vector<Fired> v) {
  std::sort(v.begin(), v.end(), [](const Fired& a, const Fired& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.tag < b.tag;
  });
  return v;
}

std::vector<Fired> flattened(const SimRun& run) {
  std::vector<Fired> all;
  for (const auto& l : run.logs) all.insert(all.end(), l.begin(), l.end());
  return sorted_by_time_and_tag(std::move(all));
}

TEST(ParallelSimDifferential, SerialWheelMatchesReference) {
  for (std::uint64_t seed : {1ull, 2ull, 7ull, 42ull, 1984ull}) {
    const auto ref = drive_ref(seed);
    ASSERT_FALSE(ref.empty()) << "seed " << seed << " scheduled nothing";
    const auto serial = drive_sim(seed, /*partitions=*/0, /*lookahead=*/0);
    EXPECT_EQ(serial.logs[0], ref) << "serial wheel diverged, seed " << seed;
  }
}

TEST(ParallelSimDifferential, SinglePartitionWindowedMatchesReference) {
  // With one partition there is no cross-partition traffic, so the
  // windowed walk must reproduce the reference pop order exactly — the
  // window machinery only batches, it must not reorder.
  for (std::uint64_t seed : {1ull, 7ull, 1984ull}) {
    const auto ref = drive_ref(seed);
    for (sim::Duration la : {sim::Duration{0}, sim::Duration{64}}) {
      const auto win = drive_sim(seed, /*partitions=*/1, la);
      EXPECT_EQ(win.logs[0], ref)
          << "1-partition windowed walk diverged, seed " << seed
          << " lookahead " << la;
      EXPECT_EQ(win.violations, 0u);
    }
  }
}

TEST(ParallelSimDifferential, MultiPartitionWindowedWalkMatchesReference) {
  // For every partition count and lookahead width, the windowed walk
  // keeps the reference's events: at width-1 windows (lookahead 0) every
  // event fires at its reference time, and wider windows (64, 1000) must
  // actually exercise the staged-violation clamp.
  for (std::uint64_t seed : {1ull, 2ull, 7ull, 42ull, 1984ull}) {
    const auto ref = drive_ref(seed);
    for (int partitions : {2, 4, 8}) {
      for (sim::Duration la :
           {sim::Duration{0}, sim::Duration{64}, sim::Duration{1000}}) {
        const auto windowed = drive_sim(seed, partitions, la);
        if (la == 0) {
          // Width-1 windows never clamp a staged op, so every event fires
          // at its reference time; only the within-instant order becomes
          // partition-major. Compare as sorted multisets.
          EXPECT_EQ(flattened(windowed), sorted_by_time_and_tag(ref))
              << "windowed walk lost/moved events, seed " << seed
              << " partitions " << partitions;
          EXPECT_EQ(windowed.violations, 0u);
        } else {
          // Cross-partition children (delay 17 < lookahead) are staged
          // violations; the storms must actually exercise the clamp path.
          EXPECT_GT(windowed.violations, 0u)
              << "seed " << seed << " partitions " << partitions
              << " lookahead " << la;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Lookahead-violation accounting: a cross-partition schedule under the
// declared window is counted; same-partition and >= window ones are not.

TEST(Lookahead, CrossPartitionSchedulesUnderTheWindowAreCounted) {
  sim::Simulator s;
  s.enable_partitions(2);
  s.set_lookahead(100);
  {
    sim::ScopedPartition guard(s, 0);
    s.after(10, [&s]() {
      {  // cross-partition, delay < lookahead: one violation
        sim::ScopedPartition to1(s, 1);
        s.after(10, []() {});
      }
      {  // cross-partition, delay >= lookahead: fine
        sim::ScopedPartition to1(s, 1);
        s.after(100, []() {});
      }
      s.after(1, []() {});  // same partition: fine at any delay
    });
  }
  // Top-level schedules (no executing callback) never count: the engine
  // only promises lookahead between partitions *during* execution.
  {
    sim::ScopedPartition guard(s, 1);
    s.after(1, []() {});
  }
  s.run();
  EXPECT_EQ(s.lookahead_violations(), 1u);
}

TEST(Lookahead, StagedViolationLandsAtTheNextWindowBoundary) {
  // A cross-partition schedule under the declared lookahead cannot be
  // delivered at its nominal time — the target partition may already have
  // executed past it in this window. The rule (commit_window in
  // sim/simulator.h): the staged op lands at window_end + 1 — late by
  // less than one window, and deterministically so. Pin the exact landing
  // time.
  sim::Simulator s;
  s.enable_partitions(2);
  s.set_lookahead(100);
  sim::Time fired_at = 0;
  {
    sim::ScopedPartition p0(s, 0);
    s.after(10, [&s, &fired_at]() {
      // Nominal target t=20 on the other partition — inside the
      // [10, 109] window, so it must be deferred.
      sim::ScopedPartition p1(s, 1);
      s.after(10, [&s, &fired_at]() { fired_at = s.now(); });
    });
  }
  s.run();
  EXPECT_EQ(s.lookahead_violations(), 1u);
  EXPECT_EQ(fired_at, 110);
}

}  // namespace
