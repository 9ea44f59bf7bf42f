// soda_soak: the chaos workload over real UDP sockets (src/posix) instead
// of the simulated Megalink — echo servers and load generators exchange
// datagrams on loopback in real time, with optional random datagram drops
// injected on top of whatever the host network does.
//
// Unlike soda_chaos this is NOT deterministic: wall-clock scheduling and
// real socket latency order events. The invariant checkers still ride on
// the trace stream, so a soak run is a correctness check of the protocol
// against a medium the simulator does not model. Opt-in (CI runs it from
// a manually-dispatched job); exits 0 with a notice when the environment
// has no usable sockets.
//
// Usage:
//   soda_soak [--nodes N] [--servers S] [--seconds W] [--drop P]
//             [--speedup X] [--seed K]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "chaos/invariants.h"
#include "chaos/workload.h"
#include "posix/udp_network.h"

using namespace soda;

namespace {

struct Options {
  int nodes = 5;
  int servers = 1;
  double wall_seconds = 10.0;
  double drop = 0.10;
  double speedup = 50.0;
  std::uint64_t seed = 1;
};

bool parse_args(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "soda_soak: %s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--nodes") == 0) {
      const char* v = next("--nodes");
      if (!v) return false;
      o.nodes = std::atoi(v);
    } else if (std::strcmp(argv[i], "--servers") == 0) {
      const char* v = next("--servers");
      if (!v) return false;
      o.servers = std::atoi(v);
    } else if (std::strcmp(argv[i], "--seconds") == 0) {
      const char* v = next("--seconds");
      if (!v) return false;
      o.wall_seconds = std::atof(v);
    } else if (std::strcmp(argv[i], "--drop") == 0) {
      const char* v = next("--drop");
      if (!v) return false;
      o.drop = std::atof(v);
    } else if (std::strcmp(argv[i], "--speedup") == 0) {
      const char* v = next("--speedup");
      if (!v) return false;
      o.speedup = std::atof(v);
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      const char* v = next("--seed");
      if (!v) return false;
      o.seed = std::strtoull(v, nullptr, 10);
    } else {
      std::fprintf(stderr, "soda_soak: unknown flag %s\n", argv[i]);
      return false;
    }
  }
  if (o.nodes < 2 || o.servers < 1 || o.servers >= o.nodes ||
      o.wall_seconds <= 0 || o.speedup <= 0) {
    std::fprintf(stderr, "soda_soak: bad topology/timing options\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse_args(argc, argv, o)) return 2;

  // The workload description the chaos clients understand. The load phase
  // takes ~60% of the simulated budget; the rest is drain, so requests in
  // flight at the cutoff still resolve before the invariants are checked.
  const double sim_budget_us = o.wall_seconds * o.speedup * 1e6;
  chaos::Scenario s;
  s.name = "soak";
  s.nodes = o.nodes;
  s.servers = o.servers;
  s.duration = static_cast<sim::Time>(sim_budget_us * 0.6);
  s.drain = static_cast<sim::Time>(sim_budget_us * 0.4);
  s.request_interval = 60 * sim::kMillisecond;
  s.payload = 64;
  s.accept_delay = 2 * sim::kMillisecond;

  posix::UdpNetwork net(o.seed, o.speedup);
  auto& sim = net.sim();
  sim.trace().enable_all();
  sim.trace().set_store(false);
  chaos::InvariantSet invariants = chaos::InvariantSet::standard();
  sim.trace().set_observer(
      [&](const sim::TraceEvent& e) { invariants.on_event(e); });
  net.bus().set_faults(net::UniformFaults{.loss = o.drop});

  std::vector<chaos::EchoServer*> servers;
  std::vector<chaos::LoadClient*> clients;
  try {
    for (int mid = 0; mid < o.nodes; ++mid) {
      if (mid < o.servers) {
        servers.push_back(&net.spawn<chaos::EchoServer>(NodeConfig{}, s));
      } else {
        clients.push_back(&net.spawn<chaos::LoadClient>(NodeConfig{}, s));
      }
    }
  } catch (const std::runtime_error& ex) {
    // No sockets (sandboxed CI, exhausted fds): not a protocol failure.
    std::printf("soda_soak: skipping, %s\n", ex.what());
    sim.trace().set_observer(nullptr);
    return 0;
  }

  std::printf("soda_soak: %d nodes (%d server%s), %.1fs wall at %.0fx, "
              "drop %.0f%%, seed %llu\n",
              o.nodes, o.servers, o.servers == 1 ? "" : "s", o.wall_seconds,
              o.speedup, o.drop * 100,
              static_cast<unsigned long long>(o.seed));

  const sim::Time end = s.end_time();
  // Wall budget derived from what the run actually has to execute: the
  // scenario's load + drain phases replayed at the configured speedup,
  // with a 50% proportional allowance for scheduler jitter plus a small
  // fixed startup term — not a flat fudge, so short smokes fail fast and
  // long soaks aren't cut off mid-drain.
  const auto wall_budget = std::chrono::milliseconds(
      static_cast<long long>(static_cast<double>(end) / o.speedup / 1000.0 *
                             1.5) +
      2000);
  const bool finished =
      net.run_until([&] { return sim.now() >= end; }, wall_budget);
  net.check_clients();
  invariants.finish(sim.now());
  sim.trace().set_observer(nullptr);

  std::uint64_t completed = 0, crashed = 0, timedout = 0, served = 0;
  for (const auto* c : clients) {
    completed += c->completed();
    crashed += c->crashed();
    timedout += c->timedout();
  }
  for (const auto* sv : servers) served += sv->served();

  std::printf("  sim time      %.1f s (budget reached: %s)\n",
              static_cast<double>(sim.now()) / 1e6, finished ? "yes" : "no");
  std::printf("  ops completed %llu (crashed %llu, timedout %llu, "
              "served %llu)\n",
              static_cast<unsigned long long>(completed),
              static_cast<unsigned long long>(crashed),
              static_cast<unsigned long long>(timedout),
              static_cast<unsigned long long>(served));
  std::printf("  datagrams     out %zu, in %zu, dropped %zu, "
              "undecodable %zu\n",
              net.bus().datagrams_out(), net.bus().datagrams_in(),
              net.bus().dropped(), net.bus().decode_failures());

  const auto violations = invariants.violations();
  for (const auto& v : violations) {
    std::printf("  VIOLATION [%s] %s\n", v.invariant.c_str(),
                v.detail.c_str());
  }
  if (!violations.empty()) return 1;
  if (completed == 0) {
    std::printf("soda_soak: no operation completed — wedged or starved\n");
    return 1;
  }
  std::printf("soda_soak: clean\n");
  return 0;
}
