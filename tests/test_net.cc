// Unit tests for the broadcast-bus model and frame vocabulary.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/bus.h"
#include "net/frame_pool.h"
#include "net/packet.h"
#include "sim/simulator.h"

namespace soda::net {
namespace {

Frame small_frame(Mid src, Mid dst) {
  Frame f;
  f.src = src;
  f.dst = dst;
  f.seq = 0;
  f.request = RequestSection{1, 0x42, 0, 0, 0, false};
  return f;
}

TEST(Packet, WireSizeCountsSections) {
  Frame f;
  const auto base = f.wire_size();
  f.ack = AckSection{0};
  EXPECT_GT(f.wire_size(), base);
  f.data.resize(100);
  EXPECT_EQ(f.wire_size(), base + 2 + 100);
}

TEST(Packet, ReservedBitPartitionsPatterns) {
  EXPECT_TRUE(is_reserved_pattern(kReservedBit | 5));
  EXPECT_FALSE(is_reserved_pattern(kWellKnownBit | 5));
  EXPECT_FALSE(is_reserved_pattern(5));
}

TEST(Packet, DescribeMentionsSections) {
  Frame f = small_frame(1, 2);
  f.data_tag = DataTag::kRequestData;
  f.data.resize(4);
  auto d = f.describe();
  EXPECT_NE(d.find("REQ"), std::string::npos);
  EXPECT_NE(d.find("DATA[4b"), std::string::npos);
}

TEST(Bus, DeliversAfterSerializationDelay) {
  sim::Simulator s;
  BusConfig cfg;
  Bus bus(s, cfg);
  sim::Time delivered_at = -1;
  bus.attach_ref(2, [&](const FrameRef&) { delivered_at = s.now(); });
  Frame f = small_frame(1, 2);
  const auto wire = static_cast<sim::Duration>(f.wire_size()) *
                        cfg.us_per_byte +
                    cfg.propagation;
  bus.send(f);
  s.run();
  EXPECT_EQ(delivered_at, wire);
}

TEST(Bus, UnicastDoesNotReachOthers) {
  sim::Simulator s;
  Bus bus(s, BusConfig{});
  int at2 = 0, at3 = 0;
  bus.attach_ref(2, [&](const FrameRef&) { ++at2; });
  bus.attach_ref(3, [&](const FrameRef&) { ++at3; });
  bus.send(small_frame(1, 2));
  s.run();
  EXPECT_EQ(at2, 1);
  EXPECT_EQ(at3, 0);
}

TEST(Bus, BroadcastReachesAllButSender) {
  sim::Simulator s;
  Bus bus(s, BusConfig{});
  int at1 = 0, at2 = 0, at3 = 0;
  bus.attach_ref(1, [&](const FrameRef&) { ++at1; });
  bus.attach_ref(2, [&](const FrameRef&) { ++at2; });
  bus.attach_ref(3, [&](const FrameRef&) { ++at3; });
  bus.send(small_frame(1, kBroadcastMid));
  s.run();
  EXPECT_EQ(at1, 0);  // a station does not hear its own broadcast
  EXPECT_EQ(at2, 1);
  EXPECT_EQ(at3, 1);
}

TEST(Bus, LossDropsFrames) {
  sim::Simulator s(7);
  Bus bus(s, BusConfig{});
  bus.set_faults(UniformFaults{.loss = 1.0});
  int got = 0;
  bus.attach_ref(2, [&](const FrameRef&) { ++got; });
  for (int i = 0; i < 10; ++i) bus.send(small_frame(1, 2));
  s.run();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(bus.frames_lost(), 10u);
}

TEST(Bus, CorruptionDiscardsAfterCrc) {
  sim::Simulator s(7);
  Bus bus(s, BusConfig{});
  bus.set_faults(UniformFaults{.corruption = 1.0});
  int got = 0;
  bus.attach_ref(2, [&](const FrameRef&) { ++got; });
  bus.send(small_frame(1, 2));
  s.run();
  // The frame consumed wire time but the receiving interface dropped it.
  EXPECT_EQ(got, 0);
  EXPECT_EQ(bus.frames_corrupted(), 1u);
  EXPECT_EQ(bus.frames_sent(), 1u);
}

TEST(Bus, PartialLossStatistically) {
  sim::Simulator s(11);
  Bus bus(s, BusConfig{});
  bus.set_faults(UniformFaults{.loss = 0.5});
  int got = 0;
  bus.attach_ref(2, [&](const FrameRef&) { ++got; });
  for (int i = 0; i < 400; ++i) bus.send(small_frame(1, 2));
  s.run();
  EXPECT_GT(got, 120);
  EXPECT_LT(got, 280);
}

TEST(Bus, DetachedStationHearsNothing) {
  sim::Simulator s;
  Bus bus(s, BusConfig{});
  int got = 0;
  bus.attach_ref(2, [&](const FrameRef&) { ++got; });
  bus.detach(2);
  bus.send(small_frame(1, 2));
  s.run();
  EXPECT_EQ(got, 0);
}

TEST(Bus, StatsAccumulateAndReset) {
  sim::Simulator s;
  Bus bus(s, BusConfig{});
  bus.attach_ref(2, [](const FrameRef&) {});
  Frame f = small_frame(1, 2);
  bus.send(f);
  bus.send(f);
  s.run();
  EXPECT_EQ(bus.frames_sent(), 2u);
  EXPECT_EQ(bus.bytes_sent(), 2 * f.wire_size());
  bus.reset_stats();
  EXPECT_EQ(bus.frames_sent(), 0u);
}

/// A hook that decides every delivery's fate without drawing.
FaultHook always(Fate fate) {
  return [fate](const Frame&, Mid, sim::Time, sim::Rng&) { return fate; };
}

TEST(Bus, DupFilterDeliversSecondCopy) {
  sim::Simulator s;
  BusConfig cfg;
  Bus bus(s, cfg);
  std::vector<sim::Time> deliveries;
  bus.attach_ref(2, [&](const FrameRef&) { deliveries.push_back(s.now()); });
  bus.set_faults(always(Fate{.duplicate = true, .dup_lag = 700}));
  Frame f = small_frame(1, 2);
  const auto wire = static_cast<sim::Duration>(f.wire_size()) *
                        cfg.us_per_byte +
                    cfg.propagation;
  bus.send(f);
  s.run();
  EXPECT_EQ(deliveries, (std::vector<sim::Time>{wire, wire + 700}));
  EXPECT_EQ(bus.frames_duplicated(), 1u);
}

TEST(Bus, DupFilterDecliningMeansSingleDelivery) {
  // A hook that duplicates only station 3's copy of a broadcast.
  sim::Simulator s;
  Bus bus(s, BusConfig{});
  int at2 = 0, at3 = 0;
  bus.attach_ref(2, [&](const FrameRef&) { ++at2; });
  bus.attach_ref(3, [&](const FrameRef&) { ++at3; });
  bus.set_faults([](const Frame&, Mid dst, sim::Time, sim::Rng&) {
    return Fate{.duplicate = dst == 3};
  });
  bus.send(small_frame(1, kBroadcastMid));
  s.run();
  EXPECT_EQ(at2, 1);
  EXPECT_EQ(at3, 2);
  EXPECT_EQ(bus.frames_duplicated(), 1u);
}

TEST(Bus, DelayFilterAddsShapedLatency) {
  sim::Simulator s;
  BusConfig cfg;
  Bus bus(s, cfg);
  sim::Time delivered_at = -1;
  bus.attach_ref(2, [&](const FrameRef&) { delivered_at = s.now(); });
  bus.set_faults(always(Fate{.delay = 1500}));
  Frame f = small_frame(1, 2);
  const auto wire = static_cast<sim::Duration>(f.wire_size()) *
                        cfg.us_per_byte +
                    cfg.propagation;
  bus.send(f);
  s.run();
  EXPECT_EQ(delivered_at, wire + 1500);
}

// The random medium draws in a fixed order — loss, corruption, jitter,
// duplication, the duplicate's lag — and a degenerate knob draws nothing,
// except that a duplicate always draws its lag.
TEST(Bus, UniformFaultsDrawInTheFixedOrder) {
  const Frame f = small_frame(1, 2);
  sim::Rng rng(3), ref(3);
  EXPECT_EQ(UniformFaults{}(f, 2, 0, rng), Fate{});
  EXPECT_EQ(rng.next_u64(), ref.next_u64());  // nothing drawn

  const UniformFaults all{
      .loss = 0.5, .corruption = 0.5, .jitter = 9, .duplicate = 0.5};
  for (int i = 0; i < 200; ++i) {
    Fate want;
    want.drop = ref.chance(0.5);
    if (!want.drop) {
      want.damage = ref.chance(0.5);
      want.delay = ref.next_range(0, 9);
      want.duplicate = ref.chance(0.5);
      if (want.duplicate) want.dup_lag = ref.next_range(0, 9);
    }
    ASSERT_EQ(all(f, 2, 0, rng), want) << i;
  }

  EXPECT_EQ(UniformFaults{.duplicate = 1.0}(f, 2, 0, rng),
            Fate{.duplicate = true});
  EXPECT_EQ(ref.next_range(0, 0), 0);  // the zero-jitter lag still drew
  EXPECT_EQ(rng.next_u64(), ref.next_u64());
}

// Delivery events own FrameRefs and may outlive the Bus that pooled them
// (core::Network tears its bus down before the simulator's queue). The
// pool core must stay alive until its last owner drops, in either order;
// the sanitizer build turns a use-after-free or a leaked core into a
// failure here.
TEST(FramePool, ScheduledDeliveryOutlivesItsBus) {
  int delivered = 0;
  {
    sim::Simulator s;
    {
      Bus bus(s, BusConfig{});
      bus.attach_ref(2, [&](const FrameRef&) { ++delivered; });
      bus.send(small_frame(1, 2));
      bus.send(small_frame(1, kBroadcastMid));
    }
    // The bus (and its pool handle) is gone; the queued deliveries still
    // hold refs, and destroying the simulator releases the last of them.
    EXPECT_FALSE(s.idle());
  }
  EXPECT_EQ(delivered, 0);

  // The same at the pool level, with both destruction orders.
  FrameRef survivor;
  {
    FramePool pool;
    survivor = pool.make(small_frame(3, 4));
    FrameRef early = pool.make(small_frame(5, 6));
    EXPECT_EQ(early->src, 5);
  }
  ASSERT_TRUE(survivor);
  EXPECT_EQ(survivor->src, 3);
  EXPECT_EQ(survivor->dst, 4);
  survivor.reset();  // last owner: frees the core
  EXPECT_FALSE(survivor);
}

// Steady traffic reuses freed nodes: whether a frame is delivered or
// dropped on the wire, its node returns to the free list, so the slab
// stays at the peak number of frames in flight at once.
TEST(FramePool, SteadyTrafficRecyclesNodes) {
  sim::Simulator s;
  Bus bus(s, BusConfig{});
  int delivered = 0;
  bus.attach_ref(2, [&](const FrameRef&) { ++delivered; });
  bus.attach_ref(3, [&](const FrameRef&) { ++delivered; });
  int sends = 0;
  bus.set_faults([&sends](const Frame&, Mid, sim::Time, sim::Rng&) {
    return Fate{.drop = ++sends % 3 == 0};
  });
  constexpr int kRounds = 500, kBurst = 4;
  for (int round = 0; round < kRounds; ++round) {
    for (int i = 0; i < kBurst; ++i) {
      bus.send(small_frame(1, i % 2 == 0 ? 2 : kBroadcastMid));
    }
    s.run();
  }
  EXPECT_GT(delivered, 0);
  EXPECT_GT(bus.frames_lost(), 0u);
  EXPECT_EQ(bus.pool().slab_nodes(), static_cast<std::size_t>(kBurst));
}

}  // namespace
}  // namespace soda::net
