// Locks in the reproduction of the paper's evaluation (§5.5): steady-state
// packet counts per operation, cost slopes, the pipelined/non-pipelined
// relationships, the headline "active RECEIVE ≈ active SEND" claim, and
// the overhead-breakdown accounting.
#include <gtest/gtest.h>

#include "benchsupport/stream.h"
#include "proto/timing.h"

namespace soda::bench {
namespace {

StreamResult stream(OpKind k, std::uint32_t words, bool pipelined) {
  StreamOptions o;
  o.kind = k;
  o.words = words;
  o.pipelined = pipelined;
  return run_stream(o);
}

// ---- packet counts: the structural claim of the performance tables ----

// gtest names each case by printing the parameter's raw bytes, so the
// padding is spelled out and zeroed: implicit padding would put whatever
// memory the temporary happened to occupy into the test names.
struct PacketCase {
  PacketCase(OpKind k, std::uint32_t w, bool p, double e)
      : kind(k), words(w), pipelined(p), expected_packets(e) {}
  OpKind kind;
  std::uint8_t pad0[3] = {};
  std::uint32_t words;
  bool pipelined;
  std::uint8_t pad1[7] = {};
  double expected_packets;
};
static_assert(sizeof(PacketCase) == 24,
              "PacketCase must have no implicit padding");

class PacketCounts : public ::testing::TestWithParam<PacketCase> {};

TEST_P(PacketCounts, MatchesPaperTable) {
  const auto p = GetParam();
  auto r = stream(p.kind, p.words, p.pipelined);
  ASSERT_TRUE(r.finished);
  EXPECT_NEAR(r.packets_per_op, p.expected_packets, 0.25)
      << to_string(p.kind) << " w=" << p.words
      << (p.pipelined ? " pipelined" : " non-pipelined");
}

INSTANTIATE_TEST_SUITE_P(
    PaperTables, PacketCounts,
    ::testing::Values(
        // "2 packets per PUT" in both kernels, at all sizes.
        PacketCase{OpKind::kSignal, 0, false, 2.0},
        PacketCase{OpKind::kSignal, 0, true, 2.0},
        PacketCase{OpKind::kPut, 1, false, 2.0},
        PacketCase{OpKind::kPut, 500, false, 2.0},
        PacketCase{OpKind::kPut, 1000, false, 2.0},
        PacketCase{OpKind::kPut, 1000, true, 2.0},
        // "4 packets per GET (non-pipelined)", "2 per GET (pipelined)".
        PacketCase{OpKind::kGet, 1, false, 4.0},
        PacketCase{OpKind::kGet, 500, false, 4.0},
        PacketCase{OpKind::kGet, 1, true, 2.0},
        PacketCase{OpKind::kGet, 1000, true, 2.0},
        // "2 packets per EXCHANGE (pipelined)". Non-pipelined: the paper
        // reports 6; our stream alternates the 6-packet busy cycle with a
        // 3-packet fast cycle (see EXPERIMENTS.md), averaging ~4.
        PacketCase{OpKind::kExchange, 1, true, 2.0},
        PacketCase{OpKind::kExchange, 1000, true, 2.0},
        PacketCase{OpKind::kExchange, 1, false, 4.0}));

// ---- latency shape ----

TEST(Latency, SignalNearPaperIntercept) {
  auto r = stream(OpKind::kSignal, 0, false);
  ASSERT_TRUE(r.finished);
  // Paper: 7.1 ms per SIGNAL on one multiplexed CPU; our two engines
  // (CPU + bus) overlap a little, giving ~5.8 ms of wall clock while the
  // charged CPU totals still sum to ~7.1 (checked below).
  EXPECT_GT(r.ms_per_op, 4.5);
  EXPECT_LT(r.ms_per_op, 8.5);
}

TEST(Latency, PutSlopeMatchesWirePlusCopies) {
  // 1 Mbit/s wire (16 us/word) + one copy per side (24 us/word) = 40
  // us/word, the slope of every table in the paper.
  auto r0 = stream(OpKind::kPut, 0, false);
  auto r1 = stream(OpKind::kPut, 1000, false);
  ASSERT_TRUE(r0.finished && r1.finished);
  const double slope_us_per_word = (r1.ms_per_op - r0.ms_per_op);
  EXPECT_NEAR(slope_us_per_word, 40.0, 6.0);
}

TEST(Latency, GetNonPipelinedNearPaperValues) {
  // Paper: 16 ms at 1 word, 55 ms at 1000 words.
  auto r1 = stream(OpKind::kGet, 1, false);
  auto r1000 = stream(OpKind::kGet, 1000, false);
  ASSERT_TRUE(r1.finished && r1000.finished);
  EXPECT_NEAR(r1.ms_per_op, 16.0, 4.0);
  EXPECT_NEAR(r1000.ms_per_op, 55.0, 10.0);
}

TEST(Latency, PipeliningHelpsGetAndExchange) {
  for (auto kind : {OpKind::kGet, OpKind::kExchange}) {
    auto np = stream(kind, 100, false);
    auto pip = stream(kind, 100, true);
    ASSERT_TRUE(np.finished && pip.finished);
    EXPECT_LT(pip.ms_per_op, np.ms_per_op * 0.75)
        << to_string(kind) << ": pipelining must win clearly";
    EXPECT_LT(pip.packets_per_op, np.packets_per_op);
  }
}

TEST(Latency, PipeliningCostsLittleForPut) {
  auto np = stream(OpKind::kPut, 100, false);
  auto pip = stream(OpKind::kPut, 100, true);
  ASSERT_TRUE(np.finished && pip.finished);
  EXPECT_NEAR(pip.ms_per_op, np.ms_per_op, 1.5);
}

TEST(Headline, ActiveReceiveCostsLikeActiveSend) {
  // The thesis's third contribution: with the pipelined kernel, a GET
  // (active RECEIVE) streams about as fast as a PUT (active SEND).
  for (std::uint32_t words : {100u, 500u, 1000u}) {
    auto put = stream(OpKind::kPut, words, true);
    auto get = stream(OpKind::kGet, words, true);
    ASSERT_TRUE(put.finished && get.finished);
    EXPECT_LT(get.ms_per_op, put.ms_per_op * 1.25)
        << "GET must be within 25% of PUT at " << words << " words";
  }
}

TEST(Headline, ExchangeCostsAboutTwoTransfersPipelined) {
  auto put = stream(OpKind::kPut, 1000, true);
  auto exch = stream(OpKind::kExchange, 1000, true);
  ASSERT_TRUE(put.finished && exch.finished);
  const double two_way_data = 2.0 * (put.ms_per_op - 5.8) + 5.8;
  EXPECT_NEAR(exch.ms_per_op, two_way_data, 12.0);
}

// ---- the overhead-breakdown table (charged CPU per op) ----

TEST(Breakdown, SignalChargesMatchPaperTable) {
  auto r = stream(OpKind::kSignal, 0, false);
  ASSERT_TRUE(r.finished);
  auto cat = [&](CostCategory c) {
    return r.cost_ms[static_cast<int>(c)];
  };
  EXPECT_NEAR(cat(CostCategory::kProtocol), 2.0, 0.4);
  EXPECT_NEAR(cat(CostCategory::kConnectionTimers), 1.0, 0.2);
  EXPECT_NEAR(cat(CostCategory::kRetransmitTimers), 0.7, 0.2);
  EXPECT_NEAR(cat(CostCategory::kContextSwitch), 0.8, 0.2);
  EXPECT_NEAR(cat(CostCategory::kClientOverhead), 2.2, 0.4);
  EXPECT_NEAR(r.wire_ms_per_op, 0.4, 0.25);
  double total = r.wire_ms_per_op;
  for (int c = 0; c < static_cast<int>(CostCategory::kCount); ++c) {
    if (c != static_cast<int>(CostCategory::kTransmission)) {
      total += r.cost_ms[c];
    }
  }
  EXPECT_NEAR(total, 7.1, 1.0);  // the paper's total
}

// ---- §5.5 comparison endpoints ----

TEST(ModComparison, QueuedAcceptSlowerThanHandlerAccept) {
  StreamOptions handler;
  handler.kind = OpKind::kSignal;
  StreamOptions queued = handler;
  queued.queued_accept = true;
  auto rh = run_stream(handler);
  auto rq = run_stream(queued);
  ASSERT_TRUE(rh.finished && rq.finished);
  // Paper: 4.9 vs 5.8 ms (non-blocking), i.e. queueing adds ~1 ms.
  EXPECT_GT(rq.ms_per_op, rh.ms_per_op);
  EXPECT_LT(rq.ms_per_op, rh.ms_per_op + 3.0);
}

TEST(ModComparison, BlockingSignalSlowerThanPipelinedStream) {
  StreamOptions nonblocking;
  nonblocking.kind = OpKind::kSignal;
  StreamOptions blocking = nonblocking;
  blocking.blocking = true;
  auto rn = run_stream(nonblocking);
  auto rb = run_stream(blocking);
  ASSERT_TRUE(rn.finished && rb.finished);
  // Paper: B_SIGNAL 8.5 ms vs SIGNAL 4.9 (both excl. client overhead):
  // blocking serializes the client into every round trip.
  EXPECT_GT(rb.ms_per_op, rn.ms_per_op * 1.15);
}

// ---- derived retransmit-backoff ceiling (Delta-t envelope) ----

// The ceiling is no longer a fixed constant: with the default -1 it is
// derived as the largest c whose worst single silence gap,
// (interval << c) + jitter, still fits inside the record lifetime a
// 1984-faithful receiver is guaranteed to hold (fixed_record_lifetime).
// Pin the boundary on both calibrations: one more doubling would overshoot
// the envelope and a late retransmission would be taken as a new frame.
TEST(Backoff, DerivedCeilingSitsOnTheEnvelopeBoundary) {
  for (const TimingModel& t : {TimingModel{}, TimingModel::fast()}) {
    ASSERT_EQ(t.retransmit_backoff_max_doublings, -1);
    const int cap = t.effective_backoff_doublings();
    const sim::Duration lifetime = t.fixed_record_lifetime();
    EXPECT_LE((t.retransmit_interval << cap) + t.retransmit_jitter, lifetime);
    EXPECT_GT((t.retransmit_interval << (cap + 1)) + t.retransmit_jitter,
              lifetime);
  }
}

TEST(Backoff, DerivedCeilingMatchesKnownCalibrations) {
  // The 1984 calibration (interval 20 ms, jitter 4 ms, lifetime 237 ms)
  // admits three doublings; the fast preset (200/40 us, 5.34 ms) admits
  // four — the value the old hard-coded cap used, so the pinned 128-node
  // trace hashes recorded under it stand.
  EXPECT_EQ(TimingModel{}.effective_backoff_doublings(), 3);
  EXPECT_EQ(TimingModel::fast().effective_backoff_doublings(), 4);
}

TEST(Backoff, ExplicitCeilingOverridesDerivation) {
  TimingModel t = TimingModel::fast();
  t.retransmit_backoff_max_doublings = 1;
  EXPECT_EQ(t.effective_backoff_doublings(), 1);
  t.retransmit_backoff_max_doublings = 0;  // plain fixed interval
  EXPECT_EQ(t.effective_backoff_doublings(), 0);
  // With the ceiling at 0 the exponential scheme degenerates to the fixed
  // interval: the Delta-t arithmetic must agree exactly.
  t.exponential_retransmit_backoff = true;
  EXPECT_EQ(t.retransmit_span(), TimingModel::fast().retransmit_span());
}

TEST(Determinism, SameSeedSameResult) {
  StreamOptions o;
  o.kind = OpKind::kExchange;
  o.words = 50;
  o.seed = 77;
  auto a = run_stream(o);
  auto b = run_stream(o);
  EXPECT_EQ(a.ms_per_op, b.ms_per_op);
  EXPECT_EQ(a.packets_per_op, b.packets_per_op);
}

TEST(Determinism, LossyRunsStillComplete) {
  StreamOptions o;
  o.kind = OpKind::kExchange;
  o.words = 100;
  o.loss = 0.1;
  o.ops = 40;
  o.warmup = 10;
  auto r = run_stream(o);
  EXPECT_TRUE(r.finished);
  // Loss costs packets and time but nothing is lost functionally.
  EXPECT_GT(r.packets_per_op, 2.0);
}

}  // namespace
}  // namespace soda::bench
