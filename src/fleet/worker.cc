#include "fleet/worker.h"

#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "chaos/runner.h"
#include "chaos/scenario.h"
#include "chaos/workload.h"
#include "core/node.h"
#include "fleet/control.h"
#include "posix/udp_bus.h"
#include "stats/metrics.h"

namespace soda::fleet {

namespace {

/// Trace categories streamed to the driver: exactly the set the chaos
/// invariant checkers consume (chaos/invariants.cc) — boot/death epochs,
/// handler nesting, request issue/delivery/termination, accept outcomes.
constexpr sim::TraceCategory kStreamedCategories[] = {
    sim::TraceCategory::kBoot,
    sim::TraceCategory::kHandlerInvoked,
    sim::TraceCategory::kHandlerEnded,
    sim::TraceCategory::kRequestIssued,
    sim::TraceCategory::kRequestDelivered,
    sim::TraceCategory::kRequestCompleted,
    sim::TraceCategory::kAcceptCompleted,
};

}  // namespace

int run_worker(const WorkerOptions& opts) {
  sim::Simulator sim(opts.seed);
  posix::UdpBus bus(sim);
  if (!bus.open_station(static_cast<net::Mid>(opts.mid))) {
    std::fprintf(stderr, "soda_node[%d]: no UDP sockets\n", opts.mid);
    return 3;
  }
  const int fd = connect_loopback(opts.control_port);
  if (fd < 0) {
    std::fprintf(stderr, "soda_node[%d]: cannot reach driver on port %u\n",
                 opts.mid, opts.control_port);
    return 3;
  }
  if (!write_fully(fd, hello_line(opts.mid, opts.epoch,
                                  bus.port_of(static_cast<net::Mid>(
                                      opts.mid))),
                   10'000)) {
    ::close(fd);
    return 3;
  }

  // ---- configuration phase: scenario + peers, ended by START ----------
  set_nonblocking(fd);
  LineBuffer lines;
  std::string scenario_text;
  std::optional<Message> start;
  const auto cfg_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!start) {
    if (std::chrono::steady_clock::now() > cfg_deadline) {
      ::close(fd);
      return 4;
    }
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, 100) <= 0) continue;
    char buf[65536];
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n == 0 || (n < 0 && errno != EINTR && errno != EAGAIN &&
                   errno != EWOULDBLOCK)) {
      ::close(fd);
      return 4;  // driver vanished during configuration
    }
    if (n > 0) lines.feed(buf, static_cast<std::size_t>(n));
    while (auto line = lines.next_line()) {
      auto msg = parse_message(*line);
      if (!msg) continue;
      switch (msg->kind) {
        case Message::Kind::kScenarioLine:
          scenario_text += msg->raw;
          scenario_text += '\n';
          break;
        case Message::Kind::kPeer:
          if (msg->mid != opts.mid) {
            bus.set_peer(static_cast<net::Mid>(msg->mid), msg->port);
          }
          break;
        case Message::Kind::kStart:
          start = *msg;
          break;
        case Message::Kind::kStop:
          ::close(fd);
          return 0;
        default:
          break;
      }
      if (start) break;
    }
  }

  auto scenario = chaos::scenario_from_jsonl(scenario_text);
  if (!scenario) {
    std::fprintf(stderr, "soda_node[%d]: malformed scenario\n", opts.mid);
    ::close(fd);
    return 4;
  }

  NodeConfig config;
  if (scenario->fast) config.timing = TimingModel::fast();
  config.initial_tid = start->initial_tid;
  for (const auto& f : scenario->faults) {
    if (f.kind == chaos::FaultKind::kTimerSkew &&
        (f.node == opts.mid || f.node == -1)) {
      chaos::apply_timer_skew(config.timing, f.factor);
    }
  }

  // Anchor this incarnation's clock on the shared fleet timeline before
  // any node state exists: everything the kernel schedules, and every
  // trace event it records, happens at >= sim_offset.
  sim.run_until(start->sim_offset);

  // Trace streaming: encode each invariant-relevant event as one JSONL
  // line in an outbound buffer the main loop flushes opportunistically.
  std::string outbuf;
  std::uint64_t events_dropped = 0;
  constexpr std::size_t kOutbufFlushAt = 1 << 20;   // try a blocking flush
  constexpr std::size_t kOutbufHardCap = 64u << 20; // beyond this: shed
  sim.trace().disable_all();
  for (const auto c : kStreamedCategories) sim.trace().enable(c);
  sim.trace().set_store(false);
  sim.trace().set_observer([&](const sim::TraceEvent& e) {
    if (outbuf.size() > kOutbufHardCap) {
      ++events_dropped;
      return;
    }
    outbuf += sim::to_json(e);
    outbuf += '\n';
  });

  // Receive-side link faults: the scenario's windows as the simulator
  // compiles them, plus the driver's uniform drop as one more loss window.
  // The real medium honours only the drops (doc/FLEET.md); crashes and
  // delays are the driver's job (real signals).
  chaos::Scenario links = *scenario;
  if (start->drop > 0) {
    links.lose(start->drop, 0, std::numeric_limits<sim::Time>::max());
  }
  bus.set_faults(chaos::link_faults(links, 0));

  UniqueIdSource uids;
  Node node(sim, bus, static_cast<net::Mid>(opts.mid), config, uids);
  node.register_program("workload", [&scenario, &opts] {
    return chaos::make_workload_client(*scenario,
                                       static_cast<net::Mid>(opts.mid));
  });
  if (opts.epoch == 0) {
    // Initial boot: install directly, as the simulator does at t=0.
    node.install_client(chaos::make_workload_client(
                            *scenario, static_cast<net::Mid>(opts.mid)),
                        static_cast<net::Mid>(opts.mid));
  }
  // epoch > 0: stay a free machine. The kernel advertises the §3.5 boot
  // pattern and the driver's boot parent LOADs "workload" over the wire.

  // ---- run phase: RealtimeRunner cadence + control I/O ----------------
  const double speedup = start->speedup > 0 ? start->speedup : 10.0;
  const sim::Time end = scenario->end_time();
  const auto t0 = std::chrono::steady_clock::now();
  const auto wall_budget_us = static_cast<std::int64_t>(
      static_cast<double>(end - start->sim_offset) / speedup * 1.5 +
      10'000'000.0);
  constexpr sim::Duration kSlice = 1 * sim::kMillisecond;
  bool finished = false;
  bool driver_gone = false;
  char buf[65536];
  while (!finished && !driver_gone) {
    const auto wall_elapsed =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count();
    if (wall_elapsed > wall_budget_us) break;  // wedged: report finished=0
    const auto sim_target =
        start->sim_offset +
        static_cast<sim::Time>(static_cast<double>(wall_elapsed) * speedup);
    while (sim.now() < sim_target) {
      sim.run_until(std::min(sim.now() + kSlice, sim_target));
      if (bus.pump() > 0) sim.run_until(sim.now());
      if (sim.now() >= end) break;
    }
    bus.pump();
    if (sim.now() >= end) {
      finished = true;
      break;
    }
    // Drain driver commands (peer updates after reboots, early stop).
    for (;;) {
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n == 0) {
        driver_gone = true;
        break;
      }
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK) driver_gone = true;
        break;
      }
      lines.feed(buf, static_cast<std::size_t>(n));
    }
    while (auto line = lines.next_line()) {
      auto msg = parse_message(*line);
      if (!msg) continue;
      if (msg->kind == Message::Kind::kPeer && msg->mid != opts.mid) {
        bus.set_peer(static_cast<net::Mid>(msg->mid), msg->port);
      } else if (msg->kind == Message::Kind::kStop) {
        finished = sim.now() >= end;
        driver_gone = true;
      }
    }
    // Opportunistic event flush; block (with a deadline) only when the
    // buffer has grown past the flush threshold. Shedding events is never
    // acceptable while the driver lives: the merged invariant stream
    // would report false violations.
    if (!outbuf.empty() && !driver_gone) {
      if (outbuf.size() >= kOutbufFlushAt) {
        if (!write_fully(fd, outbuf, 30'000)) driver_gone = true;
        outbuf.clear();
      } else {
        const ssize_t n = ::write(fd, outbuf.data(), outbuf.size());
        if (n > 0) outbuf.erase(0, static_cast<std::size_t>(n));
      }
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

  sim.trace().set_observer(nullptr);

  // ---- teardown: final events + stat + bye ----------------------------
  WorkerStats st;
  if (const auto* lc = dynamic_cast<chaos::LoadClient*>(node.client())) {
    st.completed = lc->completed();
    st.crashed = lc->crashed();
    st.timedout = lc->timedout();
  } else if (const auto* es =
                 dynamic_cast<chaos::EchoServer*>(node.client())) {
    st.served = es->served();
  }
  st.datagrams_out = bus.datagrams_out();
  st.datagrams_in = bus.datagrams_in();
  st.dropped = bus.dropped();
  st.send_drops = bus.send_drops();
  st.decode_failures = bus.decode_failures();
  st.duplicates_suppressed =
      sim.metrics().total(stats::Counter::kDuplicatesSuppressed);
  st.events_dropped = events_dropped;
  st.finished = finished;

  if (!driver_gone) {
    outbuf += stat_line(st);
    outbuf += bye_line();
    (void)write_fully(fd, outbuf, 30'000);
  }
  ::close(fd);
  return 0;
}

}  // namespace soda::fleet
