// Reordering tolerance: per-frame delivery jitter lets control frames
// overtake sequenced ones and shuffles retransmissions — the protocol
// must still deliver exactly-once, in order, with correct completions.
#include <gtest/gtest.h>

#include <tuple>

#include "core/network.h"
#include "sodal/sodal.h"

namespace soda {
namespace {

using sodal::SodalClient;

constexpr Pattern kP = kWellKnownBit | 0xE0D;

class Seq : public SodalClient {
 public:
  sim::Task on_boot(Mid) override {
    advertise(kP);
    co_return;
  }
  sim::Task on_entry(HandlerArgs a) override {
    Bytes in;
    auto r = co_await accept_current_exchange(a.arg, &in, a.put_size,
                                              Bytes(a.get_size,
                                                    std::byte{0x77}));
    if (r.status == AcceptStatus::kSuccess) args.push_back(a.arg);
  }
  std::vector<std::int32_t> args;
};

class Burst : public SodalClient {
 public:
  explicit Burst(int n) : n_(n) {}
  sim::Task on_task() override {
    for (int i = 0; i < n_; ++i) {
      Bytes in;
      auto c = co_await b_exchange(ServerSignature{0, kP}, i,
                                   Bytes(40, std::byte{1}), &in, 40);
      if (c.ok() && c.arg == i) ++good;
    }
    done = true;
    co_await park_forever();
  }
  int n_;
  int good = 0;
  bool done = false;
};

class ReorderSweep : public ::testing::TestWithParam<
                         std::tuple<std::uint64_t, sim::Duration, double>> {};

TEST_P(ReorderSweep, ExactlyOnceInOrderUnderJitterAndLoss) {
  const auto [seed, jitter, loss] = GetParam();
  Network::Options o;
  o.seed = seed;
  Network net(o);
  net.bus().set_faults(net::UniformFaults{.loss = loss, .jitter = jitter});
  auto& srv = net.spawn<Seq>(NodeConfig{});
  auto& burst = net.spawn<Burst>(NodeConfig{}, 15);
  net.run_for(300 * sim::kSecond);
  net.check_clients();
  ASSERT_TRUE(burst.done);
  EXPECT_EQ(burst.good, 15);
  ASSERT_EQ(srv.args.size(), 15u);
  for (int i = 0; i < 15; ++i) {
    EXPECT_EQ(srv.args[static_cast<std::size_t>(i)], i);
  }
}

INSTANTIATE_TEST_SUITE_P(
    JitterLoss, ReorderSweep,
    ::testing::Values(
        std::make_tuple(1ull, 5'000, 0.0),
        std::make_tuple(2ull, 20'000, 0.0),
        std::make_tuple(3ull, 5'000, 0.1),
        std::make_tuple(4ull, 20'000, 0.15),
        std::make_tuple(5ull, 50'000, 0.05)));

TEST(Reordering, CancelRacesSurviveJitter) {
  // Heavy jitter + cancels: the resolved-exactly-once invariant holds.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Network::Options o;
    o.seed = seed;
    Network net(o);
    net.bus().set_faults(net::UniformFaults{.jitter = 30'000});
    class Holder : public SodalClient {
     public:
      sim::Task on_boot(Mid) override {
        advertise(kP);
        co_return;
      }
      sim::Task on_entry(HandlerArgs a) override {
        held.push_back(a.asker);
        co_return;
      }
      std::vector<RequesterSignature> held;
    };
    auto& srv = net.spawn<Holder>(NodeConfig{});
    class C : public SodalClient {
     public:
      sim::Task on_completion(HandlerArgs) override {
        ++completions;
        co_return;
      }
      sim::Task on_task() override {
        Tid t = signal(ServerSignature{0, kP}, 0);
        co_await delay(40 * sim::kMillisecond);
        auto r = co_await cancel(t);
        cancel_ok = (r == CancelStatus::kSuccess);
        done = true;
        co_await park_forever();
      }
      int completions = 0;
      bool cancel_ok = false, done = false;
    };
    auto& c = net.spawn<C>(NodeConfig{});
    // Server accepts at a random-ish time, racing the cancel.
    auto t = sim::spawn([&]() -> sim::Task {
      while (srv.held.empty()) co_await srv.delay(5 * sim::kMillisecond);
      co_await srv.delay(20 * sim::kMillisecond * (seed % 3 + 1));
      co_await srv.accept_signal(srv.held[0], 0);
    });
    net.run_for(30 * sim::kSecond);
    net.check_clients();
    ASSERT_TRUE(c.done) << "seed " << seed;
    EXPECT_EQ(c.completions + (c.cancel_ok ? 1 : 0), 1)
        << "seed " << seed << ": must resolve exactly once";
  }
}

}  // namespace
}  // namespace soda
