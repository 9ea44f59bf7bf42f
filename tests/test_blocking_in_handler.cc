// Blocking requests issued from inside the handler (§4.1.1): the paper's
// SODAL needs the saved-PC trick for this; the coroutine model supports
// it directly — the handler suspends, completions still arrive (they are
// routed at kernel level before handler dispatch), and the handler
// resumes in place.
#include <gtest/gtest.h>

#include "core/network.h"
#include "sodal/sodal.h"

namespace soda {
namespace {

using sodal::SodalClient;

constexpr Pattern kFront = kWellKnownBit | 0xB10;
constexpr Pattern kBack = kWellKnownBit | 0xB11;

/// Proxy: its handler, on a request to kFront, makes a *blocking* call to
/// the back-end server before answering — a nested remote call from
/// handler context.
class Proxy : public SodalClient {
 public:
  explicit Proxy(Mid backend) : backend_(backend) {}
  sim::Task on_boot(Mid) override {
    advertise(kFront);
    co_return;
  }
  sim::Task on_entry(HandlerArgs a) override {
    if (a.invoked_pattern != kFront) co_return;
    auto asker = a.asker;
    Bytes upstream;
    auto c = co_await b_get(ServerSignature{backend_, kBack}, a.arg,
                            &upstream, 32);
    nested_ok = c.ok();
    co_await accept_get(asker, c.arg, std::move(upstream));
  }
  Mid backend_;
  bool nested_ok = false;
};

class Backend : public SodalClient {
 public:
  sim::Task on_boot(Mid) override {
    advertise(kBack);
    co_return;
  }
  sim::Task on_entry(HandlerArgs a) override {
    co_await accept_current_get(a.arg * 10,
                                sodal::to_bytes("from-backend"));
  }
};

TEST(BlockingInHandler, NestedRemoteCallFromHandler) {
  Network net;
  auto& backend = net.spawn<Backend>(NodeConfig{});  // MID 0
  (void)backend;
  auto& proxy = net.spawn<Proxy>(NodeConfig{}, 0);   // MID 1
  class User : public SodalClient {
   public:
    sim::Task on_task() override {
      Bytes out;
      auto c = co_await b_get(ServerSignature{1, kFront}, 4, &out, 32);
      ok = c.ok() && c.arg == 40 && sodal::to_string(out) == "from-backend";
      done = true;
      co_await park_forever();
    }
    bool ok = false, done = false;
  };
  auto& user = net.spawn<User>(NodeConfig{});        // MID 2
  net.run_for(10 * sim::kSecond);
  net.check_clients();
  ASSERT_TRUE(user.done);
  EXPECT_TRUE(proxy.nested_ok);
  EXPECT_TRUE(user.ok);
}

TEST(BlockingInHandler, ChainOfThreeProxies) {
  Network net;
  net.spawn<Backend>(NodeConfig{});            // MID 0
  net.spawn<Proxy>(NodeConfig{}, 0);           // MID 1 -> backend
  // A second proxy layer: front pattern on MID 2 proxying to MID 1's
  // front pattern. Reuse Proxy by pointing its backend at MID 1 and
  // re-binding the pattern names via a small adapter.
  class Proxy2 : public SodalClient {
   public:
    sim::Task on_boot(Mid) override {
      advertise(kBack);  // expose the *back* name so Proxy can't collide
      co_return;
    }
    sim::Task on_entry(HandlerArgs a) override {
      auto asker = a.asker;
      Bytes up;
      auto c = co_await b_get(ServerSignature{1, kFront}, a.arg, &up, 32);
      co_await accept_get(asker, c.arg, std::move(up));
    }
  };
  net.spawn<Proxy2>(NodeConfig{});             // MID 2
  class User : public SodalClient {
   public:
    sim::Task on_task() override {
      Bytes out;
      auto c = co_await b_get(ServerSignature{2, kBack}, 3, &out, 32);
      ok = c.ok() && c.arg == 30;
      done = true;
      co_await park_forever();
    }
    bool ok = false, done = false;
  };
  auto& user = net.spawn<User>(NodeConfig{});  // MID 3
  net.run_for(20 * sim::kSecond);
  net.check_clients();
  ASSERT_TRUE(user.done);
  EXPECT_TRUE(user.ok);
}

TEST(BlockingInHandler, ConcurrentFrontRequestsSerializeAtHandler) {
  // Two users hit the proxy at once; the proxy's handler is BUSY during
  // its nested call, so the second request waits at the transport (BUSY
  // NACK / retry) and both eventually succeed.
  Network net;
  net.spawn<Backend>(NodeConfig{});
  net.spawn<Proxy>(NodeConfig{}, 0);
  class User : public SodalClient {
   public:
    sim::Task on_task() override {
      Bytes out;
      auto c = co_await b_get(ServerSignature{1, kFront}, 1, &out, 32);
      ok = c.ok();
      done = true;
      co_await park_forever();
    }
    bool ok = false, done = false;
  };
  auto& u1 = net.spawn<User>(NodeConfig{});
  auto& u2 = net.spawn<User>(NodeConfig{});
  net.run_for(30 * sim::kSecond);
  net.check_clients();
  EXPECT_TRUE(u1.done && u1.ok);
  EXPECT_TRUE(u2.done && u2.ok);
}

class LossyBoot : public ::testing::TestWithParam<double> {};

TEST_P(LossyBoot, BootProtocolSurvivesLoss) {
  Network::Options o;
  o.seed = 77;
  Network net(o);
  net.bus().set_faults(net::UniformFaults{.loss = GetParam()});
  Node& target = net.add_node();
  static int booted;
  booted = 0;
  class Child : public SodalClient {
   public:
    sim::Task on_boot(Mid) override {
      ++booted;
      co_return;
    }
    sim::Task on_entry(HandlerArgs) override {
      co_await accept_current_signal(0);
    }
  };
  target.register_program("c", [] { return std::make_unique<Child>(); });
  class Parent : public SodalClient {
   public:
    sim::Task on_task() override {
      Bytes load_b;
      auto c = co_await b_get(
          ServerSignature{0, Kernel::kDefaultBootPattern}, 0, &load_b, 8);
      if (!c.ok() || load_b.size() < 8) co_return;
      const Pattern load = sodal::decode_u64(load_b) & kPatternMask;
      co_await b_put(ServerSignature{0, load}, 0, sodal::to_bytes("c"));
      co_await b_signal(ServerSignature{0, load}, 0);
      started = true;
      co_await park_forever();
    }
    bool started = false;
  };
  auto& parent = net.spawn<Parent>(NodeConfig{});
  net.run_for(60 * sim::kSecond);
  net.check_clients();
  EXPECT_TRUE(parent.started);
  EXPECT_EQ(booted, 1);
  EXPECT_TRUE(target.has_client());
}

INSTANTIATE_TEST_SUITE_P(Loss, LossyBoot, ::testing::Values(0.0, 0.15, 0.3));

}  // namespace
}  // namespace soda
