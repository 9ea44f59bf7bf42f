// Regenerates the paper's "Typical Delta-t Situations" figure (§5.2.2) as
// an event timeline: connection-record creation, the take-any-sequence-
// number rule after silence, retransmission under loss, and the
// crash-recovery quiet period — with the governing window arithmetic
// (delta-t = MPL + R + A) printed from the same TimingModel the kernel
// runs on.
#include <cstdio>
#include <string>

#include "benchsupport/report.h"
#include "core/network.h"
#include "sodal/sodal.h"

namespace {

using namespace soda;
using sodal::SodalClient;

constexpr Pattern kP = kWellKnownBit | 0x57E;

class Echo : public SodalClient {
 public:
  sim::Task on_boot(Mid) override {
    advertise(kP);
    co_return;
  }
  sim::Task on_entry(HandlerArgs a) override {
    Bytes in;
    co_await accept_current_exchange(0, &in, a.put_size, {});
  }
};

class Pinger : public SodalClient {
 public:
  sim::Task on_task() override {
    for (;;) {
      co_await wait_on(go);
      co_await b_put(ServerSignature{0, kP}, 0, Bytes(4, std::byte{1}));
      ++pings;
    }
  }
  sim::CondVar go;
  int pings = 0;
};

void dump_trace(Network& net, bench::JsonlReport& report,
                const char* filter = nullptr) {
  for (const auto& e : net.sim().trace().events()) {
    const std::string line = sim::describe(e);
    if (filter && line.find(filter) == std::string::npos) continue;
    std::printf("  %9.1f ms  %s\n", sim::to_ms(e.at), line.c_str());
    report.raw(sim::to_json(e));
  }
  net.sim().trace().clear();
}

}  // namespace

int main() {
  soda::bench::JsonlReport report("deltat_timeline");
  TimingModel t;
  std::printf("Delta-t window arithmetic (from the kernel's TimingModel)\n");
  std::printf("=========================================================\n");
  std::printf("  MPL (max packet lifetime)         %8.1f ms\n",
              sim::to_ms(t.mpl));
  std::printf("  R   (retransmission span)         %8.1f ms\n",
              sim::to_ms(t.retransmit_span()));
  std::printf("  A   (max ack delay)               %8.1f ms\n",
              sim::to_ms(t.max_ack_delay()));
  std::printf("  delta-t = MPL + R + A             %8.1f ms\n",
              sim::to_ms(t.delta_t()));
  std::printf("  record lifetime = MPL + delta-t   %8.1f ms  (take-any "
              "after this much silence)\n",
              sim::to_ms(t.record_lifetime()));
  std::printf("  crash quarantine = 2*MPL + delta-t%8.1f ms  (quiet period "
              "after reboot)\n\n",
              sim::to_ms(t.crash_quarantine()));

  // --- Scenario 1: record creation and expiry ---
  {
    Network net;
    net.sim().trace().enable(sim::TraceCategory::kConnectionOpened);
    net.sim().trace().enable(sim::TraceCategory::kConnectionClosed);
    net.spawn<Echo>(NodeConfig{});
    auto& p = net.spawn<Pinger>(NodeConfig{});
    std::printf("Scenario 1: one exchange, then silence -> records expire\n");
    p.go.notify_all();
    net.run_for(sim::kSecond);
    dump_trace(net, report);
    report.metrics(net.sim().metrics(), "scenario1_expiry");
    std::printf("  (both records gone %.0f ms after the last packet)\n\n",
                sim::to_ms(t.record_lifetime()));
  }

  // --- Scenario 2: loss, retransmission, duplicate suppression ---
  {
    Network::Options o;
    o.seed = 9;
    Network net(o);
    net.bus().set_faults(net::UniformFaults{.loss = 0.5});
    net.sim().trace().enable(sim::TraceCategory::kRetransmit);
    net.sim().trace().enable(sim::TraceCategory::kRequestCompleted);
    net.spawn<Echo>(NodeConfig{});
    auto& p = net.spawn<Pinger>(NodeConfig{});
    std::printf("Scenario 2: 50%% loss -> retransmissions, exactly-once\n");
    for (int i = 0; i < 3; ++i) {
      p.go.notify_all();
      net.run_for(5 * sim::kSecond);
    }
    dump_trace(net, report);
    report.metrics(net.sim().metrics(), "scenario2_loss");
    std::printf("  pings completed: %d of 3 (each exactly once)\n\n",
                p.pings);
  }

  // --- Scenario 3: crash, quarantine, rejoin ---
  {
    Network net;
    net.sim().trace().enable(sim::TraceCategory::kCrashDetected);
    net.sim().trace().enable(sim::TraceCategory::kConnectionOpened);
    net.sim().trace().enable(sim::TraceCategory::kBoot);
    net.spawn<Echo>(NodeConfig{});
    auto& p = net.spawn<Pinger>(NodeConfig{});
    std::printf("Scenario 3: server crashes mid-conversation; the client's "
                "kernel detects it;\n            the rebooted node stays "
                "silent for the quarantine, then serves again\n");
    p.go.notify_all();
    net.run_for(sim::kSecond);
    net.node(0).crash();
    p.go.notify_all();  // this ping will fail with CRASHED
    net.run_for(net.node(0).kernel().config().timing.crash_quarantine() +
                sim::kSecond);
    net.node(0).install_client(std::make_unique<Echo>(), 0);
    p.go.notify_all();  // and this one succeeds against the new incarnation
    net.run_for(5 * sim::kSecond);
    dump_trace(net, report);
    report.metrics(net.sim().metrics(), "scenario3_crash");
    std::printf("  pings completed end-to-end: %d (1 before crash, 1 after "
                "recovery)\n",
                p.pings);
  }
  return 0;
}
