// soda_trend's snapshot gates, fed synthetic BENCH_scale.jsonl rows: the
// anycast pool gate pairs single-segment rows only, the 64-node
// contention gate catches a starved client and an op without exactly one
// terminal state, any invariant violation fails, rows of the retired
// before/after axis are skipped rather than merged, and --diff flags a
// row whose event-slab footprint grew.
#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "benchsupport/trend.h"

namespace soda::bench {
namespace {

// One scale row with the columns the gates read.
struct Row {
  std::string workload = "contention";
  int nodes = 64;
  int pool = 0;
  int segments = 1;
  bool backoff = false;
  double goodput = 4380;
  int ops = 657, expected = 756, timedout = 99;
  int ops_min = 8, ops_max = 12;
  int violations = 0;
  long slab_bytes = 0;  // 0 = no slab_bytes column
  std::string extra;  // appended verbatim, e.g. ,"optimized":false

  std::string json() const {
    return "{\"kind\":\"scale\",\"workload\":\"" + workload +
           "\",\"nodes\":" + std::to_string(nodes) +
           ",\"pool_size\":" + std::to_string(pool) +
           ",\"segments\":" + std::to_string(segments) +
           ",\"retransmit_backoff\":" + (backoff ? "true" : "false") +
           ",\"loss\":0,\"hash_epoch\":2,\"goodput_ops_s\":" +
           std::to_string(goodput) + ",\"ops_done\":" + std::to_string(ops) +
           ",\"ops_expected\":" + std::to_string(expected) +
           ",\"timedout\":" + std::to_string(timedout) +
           ",\"ops_min\":" + std::to_string(ops_min) +
           ",\"ops_max\":" + std::to_string(ops_max) +
           ",\"violations\":" + std::to_string(violations) +
           (slab_bytes > 0 ? ",\"slab_bytes\":" + std::to_string(slab_bytes)
                           : std::string()) +
           extra + "}";
  }
};

TrendReport report_of(const std::vector<Row>& rows) {
  const std::string path =
      ::testing::TempDir() + "BENCH_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".jsonl";
  {
    std::ofstream out(path);
    for (const Row& r : rows) out << r.json() << "\n";
  }
  return build_trend_report({path});
}

// The 128-node pool sweep: pool 1 and pool 8 on one bus, plus the
// 2-segment pool-8 row, shaped like the committed baseline.
std::vector<Row> pool_sweep(double single_segment_pool8_goodput) {
  Row p1;
  p1.nodes = 128;
  p1.pool = 1;
  p1.backoff = true;
  p1.goodput = 1455;
  p1.ops = p1.expected = 1524;
  p1.timedout = 0;
  Row p8 = p1;
  p8.pool = 8;
  p8.goodput = single_segment_pool8_goodput;
  Row p8_seg2 = p8;
  p8_seg2.segments = 2;
  p8_seg2.goodput = 42353;
  return {p1, p8, p8_seg2};
}

TEST(TrendGates, HealthySnapshotPasses) {
  std::vector<Row> rows = pool_sweep(/*single_segment_pool8_goodput=*/37895);
  rows.push_back(Row{});  // contention@64: 657 ok + 99 TIMEDOUT = 756
  const auto failures = trend_gate_failures(report_of(rows));
  EXPECT_TRUE(failures.empty()) << failures.front();
}

TEST(TrendGates, PoolGateComparesSingleSegmentRowsOnly) {
  // The single-segment pool-8 row collapses below 4x pool-1 (4 x 1455)
  // while the 2-segment pool-8 row stays high; the gate must see the
  // collapse instead of reading pool-8 goodput off the 2-segment row.
  const auto failures =
      trend_gate_failures(report_of(pool_sweep(/*pool8=*/1000)));
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_NE(failures[0].find("pool scaling"), std::string::npos)
      << failures[0];
}

TEST(TrendGates, StarvedContentionClientFails) {
  Row r;
  r.ops_min = 0;
  const auto failures = trend_gate_failures(report_of({r}));
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_NE(failures[0].find("starved"), std::string::npos) << failures[0];
}

TEST(TrendGates, OpWithoutOneTerminalStateFails) {
  Row r;
  r.ops = 650;  // 650 ok + 99 TIMEDOUT leaves 7 of 756 ops unaccounted
  const auto failures = trend_gate_failures(report_of({r}));
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_NE(failures[0].find("terminal states"), std::string::npos)
      << failures[0];
}

TEST(TrendGates, InvariantViolationFails) {
  Row r;
  r.workload = "star_rpc";
  r.nodes = 32;
  r.ops = r.expected = 336;
  r.timedout = r.ops_min = r.ops_max = 0;
  r.violations = 1;
  const auto failures = trend_gate_failures(report_of({r}));
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_NE(failures[0].find("invariant violation"), std::string::npos)
      << failures[0];
}

TEST(TrendReport, SkipsRowsOfTheRetiredBaseStack) {
  // An older snapshot carries a linear-ramp base row beside the shipped
  // stack's row for the same configuration; only the latter counts.
  Row base;
  base.goodput = 4185;
  base.ops = 745;
  base.timedout = 0;
  base.violations = 1;
  base.extra = ",\"optimized\":false";
  Row shipped;
  shipped.extra = ",\"optimized\":true";
  const TrendReport r = report_of({base, shipped});
  ASSERT_EQ(r.scale.size(), 1u);
  EXPECT_EQ(r.scale[0].ops, 657);
  EXPECT_EQ(r.scale[0].goodput, 4380);
  EXPECT_EQ(r.scale[0].violations, 0);
  EXPECT_TRUE(trend_gate_failures(r).empty());
}

TEST(TrendDiff, SlabFootprintGrowthIsWorse) {
  Row before;
  before.slab_bytes = 8 * 8192;
  Row same = before;
  Row grown = before;
  grown.slab_bytes = 9 * 8192;
  Row shrunk = before;
  shrunk.slab_bytes = 8192;
  Row unrecorded = before;
  unrecorded.slab_bytes = 0;
  const TrendReport b = report_of({before});
  EXPECT_EQ(b.scale.at(0).slab_bytes, 8 * 8192);
  const auto worse = [&b](const Row& after) {
    return format_trend_diff(b, report_of({after})).find("[WORSE]") !=
           std::string::npos;
  };
  EXPECT_FALSE(worse(same));
  EXPECT_TRUE(worse(grown));
  EXPECT_FALSE(worse(shrunk));
  // An old snapshot without the column never flags the new one.
  EXPECT_FALSE(format_trend_diff(report_of({unrecorded}), report_of({grown}))
                   .find("[WORSE]") != std::string::npos);
}

}  // namespace
}  // namespace soda::bench
