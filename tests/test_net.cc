// Unit tests for the broadcast-bus model and frame vocabulary.
#include <gtest/gtest.h>

#include <memory>

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
  bus.attach(2, [&](const Frame&) { delivered_at = s.now(); });
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
  bus.attach(2, [&](const Frame&) { ++at2; });
  bus.attach(3, [&](const Frame&) { ++at3; });
  bus.send(small_frame(1, 2));
  s.run();
  EXPECT_EQ(at2, 1);
  EXPECT_EQ(at3, 0);
}

TEST(Bus, BroadcastReachesAllButSender) {
  sim::Simulator s;
  Bus bus(s, BusConfig{});
  int at1 = 0, at2 = 0, at3 = 0;
  bus.attach(1, [&](const Frame&) { ++at1; });
  bus.attach(2, [&](const Frame&) { ++at2; });
  bus.attach(3, [&](const Frame&) { ++at3; });
  bus.send(small_frame(1, kBroadcastMid));
  s.run();
  EXPECT_EQ(at1, 0);  // a station does not hear its own broadcast
  EXPECT_EQ(at2, 1);
  EXPECT_EQ(at3, 1);
}

TEST(Bus, LossDropsFrames) {
  sim::Simulator s(7);
  BusConfig cfg;
  cfg.loss_probability = 1.0;
  Bus bus(s, cfg);
  int got = 0;
  bus.attach(2, [&](const Frame&) { ++got; });
  for (int i = 0; i < 10; ++i) bus.send(small_frame(1, 2));
  s.run();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(bus.frames_lost(), 10u);
}

TEST(Bus, CorruptionDiscardsAfterCrc) {
  sim::Simulator s(7);
  BusConfig cfg;
  cfg.corruption_probability = 1.0;
  Bus bus(s, cfg);
  int got = 0;
  bus.attach(2, [&](const Frame&) { ++got; });
  bus.send(small_frame(1, 2));
  s.run();
  // The frame consumed wire time but the receiving interface dropped it.
  EXPECT_EQ(got, 0);
  EXPECT_EQ(bus.frames_corrupted(), 1u);
  EXPECT_EQ(bus.frames_sent(), 1u);
}

TEST(Bus, PartialLossStatistically) {
  sim::Simulator s(11);
  BusConfig cfg;
  cfg.loss_probability = 0.5;
  Bus bus(s, cfg);
  int got = 0;
  bus.attach(2, [&](const Frame&) { ++got; });
  for (int i = 0; i < 400; ++i) bus.send(small_frame(1, 2));
  s.run();
  EXPECT_GT(got, 120);
  EXPECT_LT(got, 280);
}

TEST(Bus, DetachedStationHearsNothing) {
  sim::Simulator s;
  Bus bus(s, BusConfig{});
  int got = 0;
  bus.attach(2, [&](const Frame&) { ++got; });
  bus.detach(2);
  bus.send(small_frame(1, 2));
  s.run();
  EXPECT_EQ(got, 0);
}

TEST(Bus, StatsAccumulateAndReset) {
  sim::Simulator s;
  Bus bus(s, BusConfig{});
  bus.attach(2, [](const Frame&) {});
  Frame f = small_frame(1, 2);
  bus.send(f);
  bus.send(f);
  s.run();
  EXPECT_EQ(bus.frames_sent(), 2u);
  EXPECT_EQ(bus.bytes_sent(), 2 * f.wire_size());
  bus.reset_stats();
  EXPECT_EQ(bus.frames_sent(), 0u);
}

TEST(Bus, DupFilterDeliversSecondCopy) {
  sim::Simulator s;
  Bus bus(s, BusConfig{});
  int deliveries = 0;
  bus.attach(2, [&](const Frame&) { ++deliveries; });
  bus.set_dup_filter([](const Frame&, Mid dst) { return dst == 2; });
  bus.send(small_frame(1, 2));
  s.run();
  EXPECT_EQ(deliveries, 2);
  EXPECT_EQ(bus.frames_duplicated(), 1u);
}

TEST(Bus, DupFilterDecliningMeansSingleDelivery) {
  sim::Simulator s;
  BusConfig cfg;
  cfg.duplicate_probability = 1.0;  // filter overrides the random draw
  Bus bus(s, cfg);
  int deliveries = 0;
  bus.attach(2, [&](const Frame&) { ++deliveries; });
  bus.set_dup_filter([](const Frame&, Mid) { return false; });
  bus.send(small_frame(1, 2));
  s.run();
  EXPECT_EQ(deliveries, 1);
  EXPECT_EQ(bus.frames_duplicated(), 0u);
}

TEST(Bus, DelayFilterAddsShapedLatency) {
  sim::Simulator s;
  BusConfig cfg;
  Bus bus(s, cfg);
  sim::Time delivered_at = -1;
  bus.attach(2, [&](const Frame&) { delivered_at = s.now(); });
  bus.set_delay_filter(
      [](const Frame&, Mid) { return sim::Duration{1500}; });
  Frame f = small_frame(1, 2);
  const auto wire = static_cast<sim::Duration>(f.wire_size()) *
                        cfg.us_per_byte +
                    cfg.propagation;
  bus.send(f);
  s.run();
  EXPECT_EQ(delivered_at, wire + 1500);
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
      bus.attach(2, [&](const Frame&) { ++delivered; });
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
  bus.attach(2, [&](const Frame&) { ++delivered; });
  bus.attach(3, [&](const Frame&) { ++delivered; });
  int sends = 0;
  bus.set_loss_filter([&sends](const Frame&, Mid) { return ++sends % 3 == 0; });
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
