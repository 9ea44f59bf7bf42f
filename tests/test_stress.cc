// Randomized stress / failure-injection properties: a mixed workload of
// clients doing random operations at random servers under frame loss and
// node churn. Invariants checked per seed:
//   * every issued request resolves exactly once (one completion, or a
//     successful CANCEL) with a legal status,
//   * data that completes is intact,
//   * the network never wedges (progress between checkpoints),
//   * determinism: the same seed reproduces the same tallies.
#include <gtest/gtest.h>

#include <map>

#include "core/network.h"
#include "sodal/sodal.h"

namespace soda {
namespace {

using sodal::SodalClient;

constexpr Pattern kStress = kWellKnownBit | 0xABC;

/// Server: randomly accepts (exchange), rejects, or holds briefly.
class ChaosServer : public SodalClient {
 public:
  explicit ChaosServer(std::uint64_t seed) : rng_(seed) {}
  sim::Task on_boot(Mid) override {
    advertise(kStress);
    co_return;
  }
  sim::Task on_entry(HandlerArgs a) override {
    const auto roll = rng_.next_below(10);
    if (roll < 7) {
      Bytes in;
      co_await accept_current_exchange(
          a.arg, &in, a.put_size, Bytes(a.get_size, std::byte{0xCC}));
      ++accepted;
    } else if (roll < 9) {
      co_await reject_current();
      ++rejected;
    } else {
      // Hold: accept after a delay from the task side.
      held.push_back(a.asker);
      later.notify_all();
      ++held_count;
    }
  }
  sim::Task on_task() override {
    for (;;) {
      while (held.empty()) co_await wait_on(later);
      auto who = held.front();
      held.erase(held.begin());
      co_await delay(static_cast<sim::Duration>(
          1000 + rng_.next_below(30'000)));
      co_await accept_signal(who, 99);
    }
  }
  sim::Rng rng_;
  std::vector<RequesterSignature> held;
  sim::CondVar later;
  int accepted = 0, rejected = 0, held_count = 0;
};

/// Client: issues random operations, tracks per-tid resolution counts.
class ChaosClient : public SodalClient {
 public:
  ChaosClient(std::uint64_t seed, std::vector<Mid> servers, int target)
      : rng_(seed), servers_(std::move(servers)), target_(target) {}

  sim::Task on_completion(HandlerArgs a) override {
    auto it = live_.find(a.asker.tid);
    if (it == live_.end()) {
      ++spurious_completions;
    } else {
      live_.erase(it);
      ++resolved;
      switch (a.status) {
        case CompletionStatus::kCompleted: ++ok; break;
        case CompletionStatus::kCrashed: ++crashed; break;
        case CompletionStatus::kUnadvertised: ++unadvertised; break;
        case CompletionStatus::kTimedOut: ++timedout; break;
      }
    }
    slot_cv.notify_all();
    co_return;
  }

  sim::Task on_task() override {
    while (issued_ < target_) {
      while (k().live_requests() >= k().config().max_requests) {
        co_await wait_on(slot_cv);
      }
      const Mid server = servers_[rng_.next_below(servers_.size())];
      const auto size = static_cast<std::uint32_t>(rng_.next_below(300));
      get_bufs_.emplace_back();
      auto tid = k().request(Kernel::RequestParams::exchange(
          ServerSignature{server, kStress}, Bytes(size, std::byte{0x11}),
          size, &get_bufs_.back(), static_cast<std::int32_t>(issued_)));
      if (!tid) continue;
      live_.insert(*tid);
      ++issued_;
      // Occasionally cancel.
      if (rng_.next_below(10) == 0) {
        auto r = co_await cancel(*tid);
        if (r == CancelStatus::kSuccess) {
          live_.erase(*tid);
          ++resolved;
          ++cancelled;
        }
      }
      co_await delay(static_cast<sim::Duration>(rng_.next_below(8'000)));
    }
    drained = true;
    co_await park_forever();
  }

  sim::Rng rng_;
  std::vector<Mid> servers_;
  int target_;
  int issued_ = 0;
  std::set<Tid> live_;
  std::deque<Bytes> get_bufs_;
  sim::CondVar slot_cv;
  int resolved = 0, ok = 0, crashed = 0, unadvertised = 0, cancelled = 0,
      timedout = 0;
  int spurious_completions = 0;
  bool drained = false;
};

struct Tally {
  int resolved = 0, ok = 0, cancelled = 0, spurious = 0, outstanding = 0;
  bool operator==(const Tally&) const = default;
};

Tally run_chaos(std::uint64_t seed, double loss, bool with_crash) {
  Network::Options o;
  o.seed = seed;
  Network net(o);
  net.bus().set_faults(net::UniformFaults{.loss = loss});
  std::vector<ChaosServer*> servers;
  for (int i = 0; i < 2; ++i) {
    servers.push_back(&net.spawn<ChaosServer>(NodeConfig{}, seed + 7 + i));
  }
  std::vector<ChaosClient*> clients;
  for (int i = 0; i < 3; ++i) {
    clients.push_back(&net.spawn<ChaosClient>(
        NodeConfig{}, seed + 100 + i, std::vector<Mid>{0, 1}, 25));
  }
  if (with_crash) {
    // Kill server 1 a third of the way in; its unresolved requests must
    // fail with CRASHED rather than hang.
    net.run_for(3 * sim::kSecond);
    net.node(1).crash();
  }
  net.run_for(600 * sim::kSecond);
  net.check_clients();

  Tally t;
  for (auto* c : clients) {
    EXPECT_TRUE(c->drained) << "client wedged issuing requests";
    t.resolved += c->resolved;
    t.ok += c->ok;
    t.cancelled += c->cancelled;
    t.spurious += c->spurious_completions;
    t.outstanding += static_cast<int>(c->live_.size());
  }
  return t;
}

class StressSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>> {};

TEST_P(StressSweep, EveryRequestResolvesExactlyOnce) {
  const auto [seed, loss] = GetParam();
  Tally t = run_chaos(seed, loss, /*with_crash=*/false);
  EXPECT_EQ(t.spurious, 0);
  EXPECT_EQ(t.resolved, 75);  // 3 clients x 25 requests, each exactly once
  EXPECT_EQ(t.outstanding, 0);
  EXPECT_GT(t.ok, 20);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndLoss, StressSweep,
    ::testing::Values(std::make_tuple(1ull, 0.0), std::make_tuple(2ull, 0.0),
                      std::make_tuple(3ull, 0.1), std::make_tuple(4ull, 0.1),
                      std::make_tuple(5ull, 0.25),
                      std::make_tuple(6ull, 0.25)));

TEST(Stress, ServerCrashResolvesEverythingEventually) {
  Tally t = run_chaos(11, 0.05, /*with_crash=*/true);
  EXPECT_EQ(t.spurious, 0);
  EXPECT_EQ(t.resolved, 75);
  EXPECT_EQ(t.outstanding, 0);
}

TEST(Stress, DeterministicTallies) {
  Tally a = run_chaos(42, 0.15, false);
  Tally b = run_chaos(42, 0.15, false);
  EXPECT_EQ(a, b);
}

TEST(Stress, ServerRebootChurnUnderLoad) {
  // Kill and re-install a server repeatedly while clients hammer it:
  // every request still resolves exactly once; requests landing in the
  // dead/quarantine windows report CRASHED or UNADVERTISED, the rest
  // succeed against whichever incarnation is up.
  Network::Options o;
  o.seed = 99;
  Network net(o);
  net.bus().set_faults(net::UniformFaults{.loss = 0.05});
  net.spawn<ChaosServer>(NodeConfig{}, 7);   // node 0: churns
  net.spawn<ChaosServer>(NodeConfig{}, 8);   // node 1: stable
  std::vector<ChaosClient*> clients;
  for (int i = 0; i < 2; ++i) {
    clients.push_back(&net.spawn<ChaosClient>(
        NodeConfig{}, 200 + i, std::vector<Mid>{0, 1}, 30));
  }
  const auto quarantine =
      net.node(0).kernel().config().timing.crash_quarantine();
  for (int round = 0; round < 4; ++round) {
    net.run_for(8 * sim::kSecond);
    net.node(0).crash();
    net.run_for(quarantine + sim::kSecond);
    net.node(0).install_client(std::make_unique<ChaosServer>(1000 + round),
                               0);
  }
  net.run_for(900 * sim::kSecond);
  net.check_clients();
  int resolved = 0, spurious = 0, outstanding = 0;
  for (auto* c : clients) {
    EXPECT_TRUE(c->drained);
    resolved += c->resolved;
    spurious += c->spurious_completions;
    outstanding += static_cast<int>(c->live_.size());
  }
  EXPECT_EQ(spurious, 0);
  EXPECT_EQ(resolved, 60);
  EXPECT_EQ(outstanding, 0);
  EXPECT_EQ(net.node(0).kernel().boots(), 0u);  // installs, not net boots
}

}  // namespace
}  // namespace soda
