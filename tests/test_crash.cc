// Crash semantics (§3.6): failed REQUESTs and ACCEPTs, probes, stale
// ACCEPTs after reboot, DIE-as-crash, recovery.
#include <gtest/gtest.h>

#include "core/network.h"
#include "sodal/sodal.h"

namespace soda {
namespace {

using sodal::SodalClient;

constexpr Pattern kSrv = kWellKnownBit | 0x500;

class Holding : public SodalClient {
 public:
  sim::Task on_boot(Mid) override {
    advertise(kSrv);
    co_return;
  }
  sim::Task on_entry(HandlerArgs a) override {
    held.push_back(a.asker);
    co_return;
  }
  std::vector<RequesterSignature> held;
};

class Watcher : public SodalClient {
 public:
  sim::Task on_completion(HandlerArgs a) override {
    statuses.push_back(a.status);
    co_return;
  }
  sim::Task on_task() override {
    tid = signal(ServerSignature{0, kSrv}, 0);
    co_await park_forever();
  }
  Tid tid = kNoTid;
  std::vector<CompletionStatus> statuses;
};

TEST(Crash, ServerCrashBeforeDeliveryReportsCrashed) {
  Network net;
  net.spawn<Holding>(NodeConfig{});
  net.node(0).crash();  // dead before the request is even sent
  auto& w = net.spawn<Watcher>(NodeConfig{});
  net.run_for(60 * sim::kSecond);
  net.check_clients();
  ASSERT_EQ(w.statuses.size(), 1u);
  EXPECT_EQ(w.statuses[0], CompletionStatus::kCrashed);
}

TEST(Crash, ServerCrashAfterDeliveryDetectedByProbes) {
  Network net;
  auto& srv = net.spawn<Holding>(NodeConfig{});
  auto& w = net.spawn<Watcher>(NodeConfig{});
  net.run_for(100 * sim::kMillisecond);
  ASSERT_EQ(srv.held.size(), 1u);  // delivered, not accepted
  EXPECT_TRUE(w.statuses.empty());
  net.node(0).crash();
  net.run_for(60 * sim::kSecond);
  net.check_clients();
  ASSERT_EQ(w.statuses.size(), 1u);
  EXPECT_EQ(w.statuses[0], CompletionStatus::kCrashed);
}

TEST(Crash, HeldRequestSurvivesWhileServerAlive) {
  // Probes must NOT report a live-but-slow server as crashed: "a client
  // that loops forever inside its handler is not considered to have
  // crashed" (§3.3.2).
  Network net;
  auto& srv = net.spawn<Holding>(NodeConfig{});
  auto& w = net.spawn<Watcher>(NodeConfig{});
  (void)srv;
  net.run_for(30 * sim::kSecond);  // many probe rounds
  net.check_clients();
  EXPECT_TRUE(w.statuses.empty());
  EXPECT_EQ(net.node(1).kernel().live_requests(), 1);
}

TEST(Crash, AcceptOfCrashedRequesterReturnsCrashed) {
  Network net;
  auto& srv = net.spawn<Holding>(NodeConfig{});
  net.spawn<Watcher>(NodeConfig{});
  net.run_for(100 * sim::kMillisecond);
  ASSERT_EQ(srv.held.size(), 1u);
  auto who = srv.held[0];
  net.node(1).crash();
  // Wait out the quarantine so the requester node answers again (with
  // empty state, i.e. the reboot is visible).
  net.run_for(60 * sim::kSecond);

  struct AcceptProbe {
    AcceptStatus status = AcceptStatus::kSuccess;
    bool done = false;
  };
  static AcceptProbe probe;
  probe = {};
  class Accepter : public SodalClient {
   public:
    explicit Accepter(RequesterSignature who) : who_(who) {}
    sim::Task on_task() override {
      auto r = co_await accept_signal(who_, 0);
      probe.status = r.status;
      probe.done = true;
      co_await park_forever();
    }
    RequesterSignature who_;
  };
  net.spawn<Accepter>(NodeConfig{}, who);
  net.run_for(60 * sim::kSecond);
  net.check_clients();
  ASSERT_TRUE(probe.done);
  EXPECT_EQ(probe.status, AcceptStatus::kCrashed);
}

TEST(Crash, DieActsLikeCrashForPeers) {
  Network net;
  auto& srv = net.spawn<Holding>(NodeConfig{});
  auto& w = net.spawn<Watcher>(NodeConfig{});
  net.run_for(100 * sim::kMillisecond);
  ASSERT_EQ(srv.held.size(), 1u);
  net.node(0).kernel().die();
  net.run_for(60 * sim::kSecond);
  net.check_clients();
  ASSERT_EQ(w.statuses.size(), 1u);
  EXPECT_EQ(w.statuses[0], CompletionStatus::kCrashed);
}

TEST(Crash, RebootedNodeServesAgain) {
  Network net;
  net.spawn<Holding>(NodeConfig{});
  net.run_for(10 * sim::kMillisecond);
  net.node(0).crash();
  // Re-install a fresh server after the quarantine.
  net.run_for(net.node(0).kernel().config().timing.crash_quarantine() +
              sim::kSecond);
  net.node(0).install_client(std::make_unique<Holding>(), 0);
  auto& w = net.spawn<Watcher>(NodeConfig{});
  net.run_for(5 * sim::kSecond);
  net.check_clients();
  // The request is held by the new incarnation: delivered, no completion.
  EXPECT_TRUE(w.statuses.empty());
  EXPECT_EQ(net.node(0).kernel().boots(), 0u);  // installed, not net-booted
}

TEST(Crash, RequesterDeathClearsItsRequests) {
  Network net;
  auto& srv = net.spawn<Holding>(NodeConfig{});
  net.spawn<Watcher>(NodeConfig{});
  net.run_for(100 * sim::kMillisecond);
  ASSERT_EQ(srv.held.size(), 1u);
  EXPECT_EQ(net.node(1).kernel().live_requests(), 1);
  net.node(1).kernel().die();
  EXPECT_EQ(net.node(1).kernel().live_requests(), 0);
}

class CrashLossSweep : public ::testing::TestWithParam<double> {};

TEST_P(CrashLossSweep, CrashDetectionSurvivesLoss) {
  Network::Options o;
  o.seed = 31;
  Network net(o);
  net.bus().set_faults(net::UniformFaults{.loss = GetParam()});
  auto& srv = net.spawn<Holding>(NodeConfig{});
  auto& w = net.spawn<Watcher>(NodeConfig{});
  net.run_for(2 * sim::kSecond);
  if (srv.held.empty()) {
    // Heavy loss may have failed the request outright — also a valid
    // CRASHED outcome per the retransmission budget.
    net.run_for(120 * sim::kSecond);
    ASSERT_FALSE(w.statuses.empty());
    EXPECT_EQ(w.statuses[0], CompletionStatus::kCrashed);
    return;
  }
  net.node(0).crash();
  net.run_for(240 * sim::kSecond);
  net.check_clients();
  ASSERT_EQ(w.statuses.size(), 1u);
  EXPECT_EQ(w.statuses[0], CompletionStatus::kCrashed);
}

INSTANTIATE_TEST_SUITE_P(Loss, CrashLossSweep,
                         ::testing::Values(0.0, 0.2, 0.4));

}  // namespace
}  // namespace soda
