// Unit tests of the four standard chaos checkers (chaos/invariants.h) on
// synthetic trace streams: every violation kind with its exact text, the
// incarnation rules across DIE/KILLED and reboot, tid layouts the kernels
// and the fleet produce (monotone runs, 2^20 incarnation jumps) and ones
// they do not (descending, negative and extreme tids and nodes), the
// order finish() reports in, and the per-checker violation cap.
#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <string>
#include <vector>

#include "chaos/invariants.h"
#include "sim/trace.h"

namespace soda::chaos {
namespace {

using sim::TraceCategory;
using sim::TraceEvent;
using sim::TraceStatus;

TraceEvent event(sim::Time at, TraceCategory c, int node, int peer,
                 std::int32_t tid, TraceStatus status = TraceStatus::kNone) {
  TraceEvent e;
  e.at = at;
  e.category = c;
  e.node = node;
  e.peer = peer;
  e.tid = tid;
  e.status = status;
  return e;
}

/// Feeds synthetic events through InvariantSet::standard() and renders
/// the violations as "invariant@at: detail" lines for exact comparison.
class Stream {
 public:
  Stream& issue(sim::Time at, int node, std::int32_t tid) {
    return feed(event(at, TraceCategory::kRequestIssued, node, -1, tid));
  }
  Stream& complete(sim::Time at, int node, std::int32_t tid,
                   TraceStatus s = TraceStatus::kCompleted) {
    return feed(event(at, TraceCategory::kRequestCompleted, node, -1, tid, s));
  }
  Stream& deliver(sim::Time at, int server, int requester, std::int32_t tid) {
    return feed(
        event(at, TraceCategory::kRequestDelivered, server, requester, tid));
  }
  Stream& accepted(sim::Time at, int server, int requester, std::int32_t tid,
                   TraceStatus s = TraceStatus::kCompleted) {
    return feed(event(at, TraceCategory::kAcceptCompleted, server, requester,
                      tid, s));
  }
  Stream& die(sim::Time at, int node, TraceStatus s = TraceStatus::kDie) {
    return feed(event(at, TraceCategory::kBoot, node, -1, -1, s));
  }
  /// The boot handler invocation that brings up a new incarnation.
  Stream& boot(sim::Time at, int node) {
    return feed(event(at, TraceCategory::kHandlerInvoked, node, -1, -1,
                      TraceStatus::kBooting));
  }
  Stream& invoke(sim::Time at, int node) {
    return feed(event(at, TraceCategory::kHandlerInvoked, node, -1, -1,
                      TraceStatus::kArrival));
  }
  Stream& end_handler(sim::Time at, int node) {
    return feed(event(at, TraceCategory::kHandlerEnded, node, -1, -1));
  }
  Stream& feed(const TraceEvent& e) {
    set_.on_event(e);
    return *this;
  }
  Stream& finish(sim::Time end) {
    set_.finish(end);
    return *this;
  }

  std::vector<std::string> lines() const {
    std::vector<std::string> out;
    for (const Violation& v : set_.violations()) {
      out.push_back(v.invariant + "@" + std::to_string(v.at) + ": " +
                    v.detail);
    }
    return out;
  }
  bool ok() const { return set_.ok(); }

 private:
  InvariantSet set_ = InvariantSet::standard();
};

using Lines = std::vector<std::string>;

// ------------------------------------------------- exactly-once-termination

TEST(ExactlyOnceTermination, ReportsEveryViolationKind) {
  Stream s;
  s.issue(1, 1, 5).issue(2, 1, 5);           // reissue of an open tid
  s.complete(3, 1, 7);                       // never issued
  s.complete(4, 1, 5).complete(5, 1, 5);     // second terminal state
  s.issue(6, 1, 8);                          // still open at the end
  s.finish(100);
  EXPECT_EQ(s.lines(),
            (Lines{"exactly-once-termination@2: tid reissued: n1 tid=5",
                   "exactly-once-termination@3: completion without issue: "
                   "n1 tid=7",
                   "exactly-once-termination@5: terminated twice: n1 tid=5",
                   "exactly-once-termination@100: never terminated after "
                   "quiescence: n1 tid=8"}));
}

TEST(ExactlyOnceTermination, EveryTerminalStatusCountsOnce) {
  Stream s;
  const TraceStatus terminal[] = {TraceStatus::kCompleted,
                                  TraceStatus::kCancelled,
                                  TraceStatus::kCrashed,
                                  TraceStatus::kUnadvertised,
                                  TraceStatus::kTimedOut};
  std::int32_t tid = 1;
  for (TraceStatus st : terminal) {
    s.issue(tid, 0, tid).complete(tid + 100, 0, tid, st);
    ++tid;
  }
  s.finish(1000);
  EXPECT_TRUE(s.ok()) << s.lines().front();
}

TEST(ExactlyOnceTermination, DeathAbandonsOpenRequestsOfThatNodeOnly) {
  Stream s;
  s.issue(1, 1, 3).issue(2, 1, 4).issue(3, 2, 3);
  s.complete(4, 1, 4);
  s.die(5, 1, TraceStatus::kKilled);
  // n1 tid=3 is forgotten: its completion is now unknown and a new
  // incarnation may reuse the tid. The terminated tid=4 is remembered.
  s.complete(6, 1, 3);
  s.issue(7, 1, 3).complete(8, 1, 3);
  s.issue(9, 1, 4);
  s.finish(50);
  EXPECT_EQ(s.lines(),
            (Lines{"exactly-once-termination@6: completion without issue: "
                   "n1 tid=3",
                   "exactly-once-termination@9: tid reissued: n1 tid=4",
                   "exactly-once-termination@50: never terminated after "
                   "quiescence: n2 tid=3"}));
}

TEST(ExactlyOnceTermination, OnlyDieAndKilledEndAnIncarnation) {
  Stream s;
  s.issue(1, 1, 3);
  s.die(2, 1, TraceStatus::kBooting);
  s.die(3, 1, TraceStatus::kLoadAllocated);
  s.complete(4, 1, 3);
  s.issue(5, 1, 4);
  s.die(6, 1, TraceStatus::kDie);
  s.finish(10);
  EXPECT_TRUE(s.ok()) << s.lines().front();
}

TEST(ExactlyOnceTermination, IncarnationJumpsKeepEachIncarnationsTids) {
  // The fleet starts incarnation k of a kernel at tid 1 + k * 2^20.
  constexpr std::int32_t kJump = 1 << 20;
  Stream s;
  for (std::int32_t t = 1; t <= 3; ++t) s.issue(t, 4, t);
  s.complete(10, 4, 1);
  s.die(11, 4);
  for (std::int32_t t = 1; t <= 3; ++t) s.issue(20 + t, 4, kJump + t);
  s.complete(30, 4, kJump + 2);
  s.complete(31, 4, 2);  // an abandoned request of the dead incarnation
  s.die(32, 4, TraceStatus::kKilled);
  s.issue(40, 4, 2 * kJump + 1);
  s.complete(41, 4, kJump + 2);
  s.finish(99);
  EXPECT_EQ(s.lines(),
            (Lines{"exactly-once-termination@31: completion without issue: "
                   "n4 tid=2",
                   "exactly-once-termination@41: terminated twice: "
                   "n4 tid=1048578",
                   "exactly-once-termination@99: never terminated after "
                   "quiescence: n4 tid=2097153"}));
}

TEST(ExactlyOnceTermination, FinishReportsInNodeThenTidOrder) {
  Stream s;
  s.issue(1, 3, 1);
  s.issue(2, 1, (1 << 20) + 1);
  s.issue(3, 1, 5);
  s.issue(4, -2, 7);
  s.issue(5, 1, 2);
  s.issue(6, INT_MAX, INT_MAX);
  s.issue(7, 1, 3);
  s.issue(8, 5000, 0);
  s.issue(9, 1, INT_MIN);
  s.issue(10, 1, 4).complete(11, 1, 4);
  s.finish(1000);
  const std::string pre =
      "exactly-once-termination@1000: never terminated after quiescence: ";
  EXPECT_EQ(s.lines(), (Lines{pre + "n-2 tid=7", pre + "n1 tid=-2147483648",
                              pre + "n1 tid=2", pre + "n1 tid=3",
                              pre + "n1 tid=5", pre + "n1 tid=1048577",
                              pre + "n3 tid=1", pre + "n5000 tid=0",
                              pre + "n2147483647 tid=2147483647"}));
}

TEST(ExactlyOnceTermination, DescendingAndNegativeTidsAreTrackedExactly) {
  Stream s;
  s.issue(1, 1, 100).issue(2, 1, 50).issue(3, 1, 75).issue(4, 1, -4);
  s.issue(5, 1, 50);  // reissue below the first tid seen
  s.complete(6, 1, 75).complete(7, 1, 75);
  s.complete(8, 1, 60);  // in the gap, never issued
  s.complete(9, 1, 100).complete(10, 1, 50);
  s.finish(20);
  EXPECT_EQ(s.lines(),
            (Lines{"exactly-once-termination@5: tid reissued: n1 tid=50",
                   "exactly-once-termination@7: terminated twice: n1 tid=75",
                   "exactly-once-termination@8: completion without issue: "
                   "n1 tid=60",
                   "exactly-once-termination@20: never terminated after "
                   "quiescence: n1 tid=-4"}));
}

TEST(ExactlyOnceTermination, DeathForgivesEveryTidOfTheDeadIncarnation) {
  // A death abandons every open request of the dead incarnation, negative
  // tids included; the next incarnation's open requests are still owed.
  Stream s;
  s.issue(1, 6, -3).issue(2, 6, 0).issue(3, 6, 9).issue(4, 6, INT_MIN);
  s.die(5, 6);
  s.complete(6, 6, -3);  // abandoned: its completion is now unknown
  s.issue(7, 6, -3).issue(8, 6, -1);
  s.complete(9, 6, -3);
  s.finish(10);
  EXPECT_EQ(s.lines(),
            (Lines{"exactly-once-termination@6: completion without issue: "
                   "n6 tid=-3",
                   "exactly-once-termination@10: never terminated after "
                   "quiescence: n6 tid=-1"}));
}

TEST(ExactlyOnceTermination, ExtremeNodesAndTids) {
  Stream s;
  const int nodes[] = {INT_MIN, -1, 0, 4095, 4096, INT_MAX};
  const std::int32_t tids[] = {INT_MIN, -1, 0, 1, INT_MAX - 1, INT_MAX};
  sim::Time t = 0;
  for (int n : nodes) {
    for (std::int32_t tid : tids) s.issue(++t, n, tid);
  }
  for (int n : nodes) {
    for (std::int32_t tid : tids) s.complete(++t, n, tid);
  }
  s.complete(++t, INT_MAX, INT_MAX);
  s.complete(++t, INT_MIN, 2);
  s.finish(t + 1);
  EXPECT_EQ(s.lines(),
            (Lines{"exactly-once-termination@73: terminated twice: "
                   "n2147483647 tid=2147483647",
                   "exactly-once-termination@74: completion without issue: "
                   "n-2147483648 tid=2"}));
}

TEST(ExactlyOnceTermination, CapsAtSixteenViolations) {
  Stream s;
  for (std::int32_t t = 0; t < 20; ++t) s.issue(t, 2, t);
  s.complete(30, 9, 1);  // a 21st violation, reported before finish()
  s.finish(100);
  const Lines lines = s.lines();
  ASSERT_EQ(lines.size(), 16u);
  EXPECT_EQ(lines.front(),
            "exactly-once-termination@30: completion without issue: "
            "n9 tid=1");
  EXPECT_EQ(lines.back(),
            "exactly-once-termination@100: never terminated after "
            "quiescence: n2 tid=14");
}

// ---------------------------------------------------- at-most-once-delivery

TEST(AtMostOnceDelivery, DuplicateWithinOneIncarnationPairFails) {
  Stream s;
  s.deliver(1, 0, 2, 116).deliver(2, 0, 2, 117).deliver(3, 0, 2, 116);
  EXPECT_EQ(s.lines(),
            (Lines{"at-most-once-delivery@3: duplicate delivery at n0 of n2 "
                   "tid=116"}));
}

TEST(AtMostOnceDelivery, RedeliveryToANewIncarnationIsLegal) {
  Stream s;
  s.deliver(1, 0, 2, 7);
  s.die(2, 0);               // server reboots: redelivery is legal
  s.deliver(3, 0, 2, 7);
  s.die(4, 2, TraceStatus::kKilled);  // so is one after the requester's
  s.deliver(5, 0, 2, 7);
  s.deliver(6, 0, 2, 7);     // but not twice to the same pair
  s.die(7, 0);
  s.die(8, 2);
  s.deliver(9, 0, 2, 7);
  s.deliver(10, 0, 2, 7);
  EXPECT_EQ(s.lines(),
            (Lines{"at-most-once-delivery@6: duplicate delivery at n0 of n2 "
                   "tid=7",
                   "at-most-once-delivery@10: duplicate delivery at n0 of "
                   "n2 tid=7"}));
}

TEST(AtMostOnceDelivery, ServersAreTrackedApartForOneRequest) {
  // An anycast request may be delivered to several pool members; each
  // server may see it once per incarnation pair.
  Stream s;
  s.deliver(1, 3, 9, 40).deliver(2, 4, 9, 40).deliver(3, 5, 9, 40);
  s.deliver(4, 4, 9, 40);
  s.die(5, 4);
  s.deliver(6, 4, 9, 40);
  s.deliver(7, 3, 9, 40);
  s.deliver(8, 5, 9, 40);
  s.deliver(9, 4, 9, 40);
  s.deliver(10, 9, 3, 40);  // the mirror pair is another request
  EXPECT_EQ(s.lines(),
            (Lines{"at-most-once-delivery@4: duplicate delivery at n4 of n9 "
                   "tid=40",
                   "at-most-once-delivery@7: duplicate delivery at n3 of n9 "
                   "tid=40",
                   "at-most-once-delivery@8: duplicate delivery at n5 of n9 "
                   "tid=40",
                   "at-most-once-delivery@9: duplicate delivery at n4 of n9 "
                   "tid=40"}));
}

TEST(AtMostOnceDelivery, JumpsDescentsAndExtremes) {
  constexpr std::int32_t kJump = 1 << 20;
  Stream s;
  sim::Time t = 0;
  for (std::int32_t tid : {1, 2, kJump + 1, 2 * kJump + 1, 5, -1, INT_MAX,
                           INT_MIN}) {
    s.deliver(++t, 1, 2, tid);
    s.deliver(++t, INT_MAX, INT_MIN, tid);
  }
  s.deliver(++t, 1, 2, 5);
  s.deliver(++t, INT_MAX, INT_MIN, INT_MIN);
  s.deliver(++t, 1, 2, 3);  // a fresh tid inside a gap
  EXPECT_EQ(s.lines(),
            (Lines{"at-most-once-delivery@17: duplicate delivery at n1 of n2 "
                   "tid=5",
                   "at-most-once-delivery@18: duplicate delivery at "
                   "n2147483647 of n-2147483648 tid=-2147483648"}));
}

TEST(AtMostOnceDelivery, CapsAtSixteenViolations) {
  Stream s;
  for (sim::Time t = 0; t < 20; ++t) s.deliver(t, 1, 2, 3);
  const Lines lines = s.lines();
  ASSERT_EQ(lines.size(), 16u);
  EXPECT_EQ(lines.back(),
            "at-most-once-delivery@16: duplicate delivery at n1 of n2 tid=3");
}

// ----------------------------------------------------------- no-stale-accept

TEST(NoStaleAccept, SuccessAfterTheRequesterRebootedFails) {
  Stream s;
  s.issue(1, 2, 9);
  s.die(2, 2);
  s.boot(3, 2);
  s.accepted(4, 0, 2, 9);
  EXPECT_EQ(s.lines(),
            (Lines{"no-stale-accept@4: n0 accepted pre-reboot request n2 "
                   "tid=9"}));
}

TEST(NoStaleAccept, EverySuccessStatusCounts) {
  Stream s;
  s.issue(1, 2, 1).issue(2, 2, 2).issue(3, 2, 3);
  s.die(4, 2, TraceStatus::kKilled).boot(5, 2);
  s.accepted(6, 0, 2, 1, TraceStatus::kCompleted);
  s.accepted(7, 0, 2, 2, TraceStatus::kPiggybacked);
  s.accepted(8, 0, 2, 3, TraceStatus::kNone);
  s.accepted(9, 0, 2, 3, TraceStatus::kCancelled);  // a failed accept
  const std::string pre = "no-stale-accept@";
  const std::string mid = ": n0 accepted pre-reboot request n2 tid=";
  EXPECT_EQ(s.lines(), (Lines{pre + "6" + mid + "1", pre + "7" + mid + "2",
                              pre + "8" + mid + "3"}));
}

TEST(NoStaleAccept, DeadOrCurrentRequesterIsBenign) {
  Stream s;
  s.issue(1, 2, 9);
  s.accepted(2, 0, 2, 9);  // requester alive, same incarnation
  s.die(3, 2);
  s.accepted(4, 0, 2, 9);  // requester dead, not yet rebooted
  s.accepted(5, 0, 3, 9);  // never issued (before tracing started)
  s.boot(6, 2);
  s.issue(7, 2, 9);        // the new incarnation reuses the tid
  s.accepted(8, 0, 2, 9);
  s.boot(9, 4);            // a boot with no death is incarnation 0
  s.issue(10, 4, 1).accepted(11, 0, 4, 1);
  EXPECT_TRUE(s.ok()) << s.lines().front();
}

TEST(NoStaleAccept, IncarnationJumpsAndExtremeIds) {
  constexpr std::int32_t kJump = 1 << 20;
  Stream s;
  s.issue(1, 7, 1).issue(2, 7, 2);
  s.issue(3, INT_MIN, INT_MAX).issue(4, INT_MAX, -5);
  s.die(5, 7).boot(6, 7);
  s.issue(7, 7, kJump + 1);
  s.accepted(8, 0, 7, kJump + 1);
  s.accepted(9, 0, 7, 2);
  s.die(10, INT_MIN).boot(11, INT_MIN);
  s.accepted(12, INT_MAX, INT_MIN, INT_MAX);
  s.accepted(13, 0, INT_MAX, -5);
  EXPECT_EQ(s.lines(),
            (Lines{"no-stale-accept@9: n0 accepted pre-reboot request n7 "
                   "tid=2",
                   "no-stale-accept@12: n2147483647 accepted pre-reboot "
                   "request n-2147483648 tid=2147483647"}));
}

TEST(NoStaleAccept, CapsAtSixteenViolations) {
  Stream s;
  for (std::int32_t t = 0; t < 20; ++t) s.issue(t, 2, t);
  s.die(30, 2).boot(31, 2);
  for (std::int32_t t = 0; t < 20; ++t) s.accepted(40 + t, 0, 2, t);
  const Lines lines = s.lines();
  ASSERT_EQ(lines.size(), 16u);
  EXPECT_EQ(lines.back(),
            "no-stale-accept@55: n0 accepted pre-reboot request n2 tid=15");
}

// ------------------------------------------------------- handler-never-nests

TEST(HandlerNeverNests, NestedInvocationFails) {
  Stream s;
  s.invoke(1, 3).end_handler(2, 3).invoke(3, 3).invoke(4, 3);
  s.invoke(5, 4);  // another node's handler is independent
  s.boot(6, 3);    // a boot invocation counts as an invocation
  EXPECT_EQ(s.lines(),
            (Lines{"handler-never-nests@4: handler invoked while busy on n3",
                   "handler-never-nests@6: handler invoked while busy on "
                   "n3"}));
}

TEST(HandlerNeverNests, DeathTearsTheHandlerDown) {
  Stream s;
  s.invoke(1, 3);
  s.die(2, 3, TraceStatus::kKilled);
  s.boot(3, 3).end_handler(4, 3).invoke(5, 3);
  s.invoke(6, INT_MIN).end_handler(7, INT_MIN).invoke(8, INT_MIN);
  s.invoke(9, INT_MAX).invoke(10, INT_MAX);
  EXPECT_EQ(s.lines(),
            (Lines{"handler-never-nests@10: handler invoked while busy on "
                   "n2147483647"}));
}

TEST(HandlerNeverNests, CapsAtSixteenViolations) {
  Stream s;
  for (sim::Time t = 0; t < 20; ++t) s.invoke(t, 1);
  const Lines lines = s.lines();
  ASSERT_EQ(lines.size(), 16u);
  EXPECT_EQ(lines.back(),
            "handler-never-nests@16: handler invoked while busy on n1");
}

// ------------------------------------------------------------- the whole set

TEST(StandardInvariants, ViolationsAreListedInCheckerOrder) {
  // Time order is ignored: the set lists each checker's violations in
  // turn, in the order the checkers were added.
  Stream s;
  s.invoke(1, 1).invoke(2, 1);
  s.issue(3, 2, 9).die(4, 2).boot(5, 2).accepted(6, 0, 2, 9);
  s.deliver(7, 0, 2, 9).deliver(8, 0, 2, 9);
  s.complete(9, 5, 5);
  s.finish(10);
  EXPECT_EQ(s.lines(),
            (Lines{"exactly-once-termination@9: completion without issue: "
                   "n5 tid=5",
                   "at-most-once-delivery@8: duplicate delivery at n0 of n2 "
                   "tid=9",
                   "no-stale-accept@6: n0 accepted pre-reboot request n2 "
                   "tid=9",
                   "handler-never-nests@2: handler invoked while busy on "
                   "n1"}));
}

TEST(StandardInvariants, PacketEventsReachNoChecker) {
  Stream s;
  for (std::int32_t t = 0; t < 4; ++t) {
    s.feed(event(t, TraceCategory::kPacketSent, 1, 2, 3));
    s.feed(event(t, TraceCategory::kPacketReceived, 2, 1, 3));
    s.feed(event(t, TraceCategory::kRetransmit, 1, 2, 3));
  }
  s.finish(10);
  EXPECT_TRUE(s.ok());
}

}  // namespace
}  // namespace soda::chaos
