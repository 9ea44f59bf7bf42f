// packet_trace — observe the SODA wire protocol packet by packet.
//
// Runs a chosen scenario in the simulator with full tracing and prints
// every bus/kernel event with timestamps. The tool this repository's own
// protocol debugging was done with; kept as a first-class target because
// the packet sequences (REQUEST+DATA / BUSY / ACCEPT+ACK / DATA+ACK ...)
// are the paper's §5.2.3 narrative made visible.
//
// Usage:
//   packet_trace [scenario] [words] [--pipelined] [--loss=P] [--ops=N]
// Scenarios: put get exchange signal boot crash cancel discover
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/network.h"
#include "sodal/sodal.h"

using namespace soda;
using namespace soda::sodal;

namespace {

constexpr Pattern kP = kWellKnownBit | 0x7ACE;

class Echo : public SodalClient {
 public:
  sim::Task on_boot(Mid) override {
    advertise(kP);
    co_return;
  }
  sim::Task on_entry(HandlerArgs a) override {
    Bytes in;
    co_await accept_current_exchange(0, &in, a.put_size,
                                     Bytes(a.get_size, std::byte{0x5A}));
  }
};

class Holder : public SodalClient {
 public:
  sim::Task on_boot(Mid) override {
    advertise(kP);
    co_return;
  }
  sim::Task on_entry(HandlerArgs) override { co_return; }
};

struct Options {
  std::string scenario = "exchange";
  std::uint32_t words = 100;
  bool pipelined = false;
  double loss = 0.0;
  int ops = 3;
};

class Driver : public SodalClient {
 public:
  explicit Driver(Options o) : o_(o) {}
  sim::Task on_task() override {
    ServerSignature srv{0, kP};
    const std::uint32_t bytes = o_.words * 2;
    for (int i = 0; i < o_.ops; ++i) {
      Bytes in;
      if (o_.scenario == "signal") {
        co_await b_signal(srv, i);
      } else if (o_.scenario == "put") {
        co_await b_put(srv, i, Bytes(bytes, std::byte{0x11}));
      } else if (o_.scenario == "get") {
        co_await b_get(srv, i, &in, bytes);
      } else if (o_.scenario == "cancel") {
        Tid t = signal(srv, i);
        co_await delay(30 * sim::kMillisecond);
        auto r = co_await cancel(t);
        std::printf("-- cancel #%d: %s\n", i, to_string(r));
      } else if (o_.scenario == "discover") {
        auto sig = co_await discover(kP);
        std::printf("-- discovered MID %d\n", sig.mid);
      } else {
        co_await b_exchange(srv, i, Bytes(bytes, std::byte{0x11}), &in,
                            bytes);
      }
    }
    done = true;
    co_await park_forever();
  }
  Options o_;
  bool done = false;
};

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--pipelined") {
      o.pipelined = true;
    } else if (arg.rfind("--loss=", 0) == 0) {
      o.loss = std::atof(arg.c_str() + 7);
    } else if (arg.rfind("--ops=", 0) == 0) {
      o.ops = std::atoi(arg.c_str() + 6);
    } else if (std::isdigit(static_cast<unsigned char>(arg[0]))) {
      o.words = static_cast<std::uint32_t>(std::atoi(arg.c_str()));
    } else {
      o.scenario = arg;
    }
  }

  Network net;
  net.bus().set_faults(net::UniformFaults{.loss = o.loss});
  net.sim().trace().enable_all();

  NodeConfig cfg;
  cfg.pipelined = o.pipelined;

  const bool holding = o.scenario == "cancel" || o.scenario == "crash";
  if (holding) {
    net.spawn<Holder>(cfg);
  } else {
    net.spawn<Echo>(cfg);
  }
  auto& drv = net.spawn<Driver>(cfg, o);

  std::printf("scenario=%s words=%u pipelined=%d loss=%.2f ops=%d\n\n",
              o.scenario.c_str(), o.words, o.pipelined, o.loss, o.ops);

  if (o.scenario == "crash") {
    net.run_for(200 * sim::kMillisecond);
    std::printf("-- crashing server node --\n");
    net.node(0).crash();
  }
  for (int i = 0; i < 600 && !drv.done; ++i) {
    net.run_for(100 * sim::kMillisecond);
  }

  for (const auto& e : net.sim().trace().events()) {
    std::printf("%10.3f ms  %s\n", sim::to_ms(e.at),
                sim::describe(e).c_str());
  }
  std::printf("\n%zu trace events; driver %s\n",
              net.sim().trace().events().size(),
              drv.done ? "finished" : "DID NOT FINISH");
  return drv.done || o.scenario == "crash" ? 0 : 1;
}
