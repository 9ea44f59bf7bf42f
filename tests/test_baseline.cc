// The *MOD-style baseline runtime: functional sanity plus the §5.5
// comparison shape (SODA roughly 2x faster on equivalent operations).
#include <gtest/gtest.h>

#include "baseline/starmod.h"
#include "benchsupport/stream.h"
#include "net/bus.h"
#include "sim/simulator.h"

namespace soda::baseline {
namespace {

using Bytes = StarModNode::Bytes;

struct Rig {
  sim::Simulator sim{3};
  net::Bus bus{sim, net::BusConfig{}};
  StarModNode a{sim, bus, 1};
  StarModNode b{sim, bus, 2};
};

TEST(StarMod, SyncCallRoundTrip) {
  Rig r;
  r.b.bind_sync_port(7, [](const Bytes& in) {
    Bytes out = in;
    for (auto& x : out) x = static_cast<std::byte>(std::to_integer<int>(x) + 1);
    return out;
  });
  Bytes reply;
  bool done = false;
  auto t = sim::spawn([&]() -> sim::Task {
    reply = co_await r.a.sync_call(2, 7, Bytes(3, std::byte{4}));
    done = true;
  });
  r.sim.run_until(sim::kSecond);
  ASSERT_TRUE(done);
  EXPECT_EQ(reply, Bytes(3, std::byte{5}));
}

TEST(StarMod, AsyncCallDelivers) {
  Rig r;
  int got = 0;
  r.b.bind_async_port(9, [&](const Bytes&) { ++got; });
  bool done = false;
  auto t = sim::spawn([&]() -> sim::Task {
    for (int i = 0; i < 5; ++i) {
      co_await r.a.async_call(2, 9, Bytes(2, std::byte{1}));
    }
    done = true;
  });
  r.sim.run_until(5 * sim::kSecond);
  ASSERT_TRUE(done);
  EXPECT_EQ(got, 5);
}

TEST(StarMod, SurvivesLoss) {
  sim::Simulator s(5);
  net::Bus bus(s, net::BusConfig{});
  bus.set_faults(net::UniformFaults{.loss = 0.25});
  StarModNode a(s, bus, 1), b(s, bus, 2);
  int got = 0;
  b.bind_async_port(1, [&](const Bytes&) { ++got; });
  bool done = false;
  auto t = sim::spawn([&]() -> sim::Task {
    for (int i = 0; i < 10; ++i) {
      co_await a.async_call(2, 1, Bytes(1, std::byte{0}));
    }
    done = true;
  });
  s.run_until(120 * sim::kSecond);
  ASSERT_TRUE(done);
  EXPECT_EQ(got, 10);  // exactly once each (duplicates suppressed)
}

double sync_call_ms(int calls = 30) {
  Rig r;
  r.b.bind_sync_port(1, [](const Bytes& in) { return in; });
  int done = 0;
  sim::Time start = 0, end = 0;
  auto t = sim::spawn([&]() -> sim::Task {
    for (int i = 0; i < calls; ++i) {
      if (i == 5) start = r.sim.now();
      co_await r.a.sync_call(2, 1, Bytes(2, std::byte{1}));
      ++done;
    }
    end = r.sim.now();
  });
  r.sim.run_until(120 * sim::kSecond);
  EXPECT_EQ(done, calls);
  return sim::to_ms(end - start) / (calls - 5);
}

double async_call_ms(int calls = 30) {
  Rig r;
  r.b.bind_async_port(1, [](const Bytes&) {});
  int done = 0;
  sim::Time start = 0, end = 0;
  auto t = sim::spawn([&]() -> sim::Task {
    for (int i = 0; i < calls; ++i) {
      if (i == 5) start = r.sim.now();
      co_await r.a.async_call(2, 1, Bytes(2, std::byte{1}));
      ++done;
    }
    end = r.sim.now();
  });
  r.sim.run_until(120 * sim::kSecond);
  EXPECT_EQ(done, calls);
  return sim::to_ms(end - start) / (calls - 5);
}

TEST(StarMod, CalibratedNearLeBlancNumbers) {
  // LeBlanc's measurements on the same hardware: 20.7 ms per synchronous
  // remote port call, 11.1 ms per asynchronous port call.
  EXPECT_NEAR(sync_call_ms(), 20.7, 4.0);
  EXPECT_NEAR(async_call_ms(), 11.1, 3.0);
}

TEST(Comparison, SodaBeatsStarModOnBothShapes) {
  // Paper §5.5: queued B_SIGNAL 10.0 ms vs *MOD sync port call 20.7 ms;
  // queued SIGNAL 5.8 ms vs *MOD async port call 11.1 ms — about 2x.
  bench::StreamOptions sync_like;
  sync_like.kind = bench::OpKind::kSignal;
  sync_like.queued_accept = true;
  sync_like.blocking = true;
  auto soda_sync = bench::run_stream(sync_like);

  bench::StreamOptions async_like = sync_like;
  async_like.blocking = false;
  auto soda_async = bench::run_stream(async_like);

  ASSERT_TRUE(soda_sync.finished && soda_async.finished);
  const double mod_sync = sync_call_ms();
  const double mod_async = async_call_ms();
  EXPECT_GT(mod_sync / soda_sync.ms_per_op, 1.5);
  EXPECT_GT(mod_async / soda_async.ms_per_op, 1.5);
}

}  // namespace
}  // namespace soda::baseline
