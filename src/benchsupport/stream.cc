#include "benchsupport/stream.h"

#include <algorithm>
#include <sstream>

#include "core/network.h"
#include "sodal/sodal.h"
#include "stats/metrics.h"

namespace soda::bench {

const char* to_string(OpKind k) {
  switch (k) {
    case OpKind::kSignal: return "SIGNAL";
    case OpKind::kPut: return "PUT";
    case OpKind::kGet: return "GET";
    case OpKind::kExchange: return "EXCHANGE";
  }
  return "?";
}

namespace {

constexpr Pattern kStreamPattern = kWellKnownBit | 0x57EA;

/// Server that ACCEPTs every request immediately in its handler — the
/// configuration of the paper's main performance tables.
class ImmediateServer : public sodal::SodalClient {
 public:
  explicit ImmediateServer(std::uint32_t reply_bytes)
      : reply_bytes_(reply_bytes) {}

  sim::Task on_boot(Mid) override {
    advertise(kStreamPattern);
    co_return;
  }

  sim::Task on_entry(HandlerArgs a) override {
    Bytes take;
    co_await accept_current_exchange(
        0, &take, a.put_size,
        Bytes(std::min(reply_bytes_, a.get_size), std::byte{0x5A}));
    co_return;
  }

 private:
  std::uint32_t reply_bytes_;
};

/// Server that queues arrivals in the handler and ACCEPTs from the task —
/// the "queued" rows compared against *MOD port calls (§5.5).
class QueuedServer : public sodal::SodalClient {
 public:
  explicit QueuedServer(std::uint32_t reply_bytes)
      : reply_bytes_(reply_bytes) {}

  sim::Task on_boot(Mid) override {
    advertise(kStreamPattern);
    co_return;
  }

  sim::Task on_entry(HandlerArgs a) override {
    charge_compute(350);  // EnQueue (the paper charges 0.7 ms per queued op)
    waiting_.push_back(Entry{a.asker, a.put_size, a.get_size});
    work_.notify_all();
    co_return;
  }

  sim::Task on_task() override {
    for (;;) {
      while (waiting_.empty()) co_await wait_on(work_);
      charge_compute(350);  // DeQueue
      Entry e = waiting_.front();
      waiting_.erase(waiting_.begin());
      Bytes take;
      co_await accept_exchange(
          e.from, 0, &take, e.put_size,
          Bytes(std::min(reply_bytes_, e.get_size), std::byte{0x5A}));
    }
  }

 private:
  struct Entry {
    RequesterSignature from;
    std::uint32_t put_size;
    std::uint32_t get_size;
  };
  std::uint32_t reply_bytes_;
  std::vector<Entry> waiting_;
  sim::CondVar work_;
};

struct Probe {
  sim::Time warmup_at = 0;
  sim::Time done_at = 0;
  std::size_t warmup_packets = 0;
  std::size_t warmup_bytes = 0;
  int completed = 0;
  bool finished = false;
};

/// The requester: keeps up to MAXREQUESTS operations outstanding
/// (non-blocking form) or issues them one at a time (blocking form).
class StreamRequester : public sodal::SodalClient {
 public:
  StreamRequester(const StreamOptions& o, Mid server, Probe* probe,
                  std::function<void()> on_warmup)
      : o_(o), server_(server), probe_(probe),
        on_warmup_(std::move(on_warmup)) {
    put_bytes_ = (o.kind == OpKind::kPut || o.kind == OpKind::kExchange)
                     ? o.words * 2
                     : 0;
    get_bytes_ = (o.kind == OpKind::kGet || o.kind == OpKind::kExchange)
                     ? o.words * 2
                     : 0;
  }

  sim::Task on_completion(HandlerArgs) override {
    note_completion();
    if (!o_.blocking) issue_some();
    co_return;
  }

  sim::Task on_task() override {
    ServerSignature sig{server_, kStreamPattern};
    if (o_.blocking) {
      for (int i = 0; i < o_.ops; ++i) {
        Bytes in;
        switch (o_.kind) {
          case OpKind::kSignal:
            co_await b_signal(sig, 0);
            break;
          case OpKind::kPut:
            co_await b_put(sig, 0, Bytes(put_bytes_, std::byte{0x11}));
            break;
          case OpKind::kGet:
            co_await b_get(sig, 0, &in, get_bytes_);
            break;
          case OpKind::kExchange:
            co_await b_exchange(sig, 0, Bytes(put_bytes_, std::byte{0x11}),
                                &in, get_bytes_);
            break;
        }
        note_completion();
      }
      co_await park_forever();
    }
    issue_some();
    co_await park_forever();
  }

 private:
  void note_completion() {
    ++probe_->completed;
    if (probe_->completed == o_.warmup) {
      probe_->warmup_at = sim().now();
      if (on_warmup_) on_warmup_();
    }
    if (probe_->completed >= o_.ops) {
      if (!probe_->finished) {
        probe_->finished = true;
        probe_->done_at = sim().now();
      }
    }
  }

  void issue_some() {
    ServerSignature sig{server_, kStreamPattern};
    while (issued_ < o_.ops && k().live_requests() < o_.max_requests) {
      get_slots_.emplace_back();
      Bytes* in = &get_slots_.back();
      Tid t = kNoTid;
      switch (o_.kind) {
        case OpKind::kSignal:
          t = signal(sig, 0);
          break;
        case OpKind::kPut:
          t = put(sig, 0, Bytes(put_bytes_, std::byte{0x11}));
          break;
        case OpKind::kGet:
          t = get(sig, 0, in, get_bytes_);
          break;
        case OpKind::kExchange:
          t = exchange(sig, 0, Bytes(put_bytes_, std::byte{0x11}), in,
                       get_bytes_);
          break;
      }
      if (t == kNoTid) break;
      ++issued_;
    }
  }

  StreamOptions o_;
  Mid server_;
  Probe* probe_;
  std::function<void()> on_warmup_;
  std::uint32_t put_bytes_ = 0;
  std::uint32_t get_bytes_ = 0;
  int issued_ = 0;
  std::deque<Bytes> get_slots_;
};

}  // namespace

StreamResult run_stream(const StreamOptions& options) {
  Network::Options netopts;
  netopts.seed = options.seed;
  Network net(netopts);
  net.bus().set_faults(net::UniformFaults{.loss = options.loss});

  NodeConfig cfg;
  cfg.pipelined = options.pipelined;
  cfg.max_requests = options.max_requests;
  cfg.timing = options.timing;

  const std::uint32_t reply_bytes =
      (options.kind == OpKind::kGet || options.kind == OpKind::kExchange)
          ? options.words * 2
          : 0;

  Node* server_node = nullptr;
  if (options.queued_accept) {
    net.spawn<QueuedServer>(cfg, reply_bytes);
  } else {
    net.spawn<ImmediateServer>(cfg, reply_bytes);
  }
  server_node = &net.node(0);

  Probe probe;
  Node* req_node = nullptr;
  auto on_warmup = [&net, &probe, &server_node, &req_node]() {
    probe.warmup_packets = net.bus().frames_sent();
    probe.warmup_bytes = net.bus().bytes_sent();
    server_node->ledger().reset();
    if (req_node) req_node->ledger().reset();
  };
  net.spawn<StreamRequester>(cfg, options, /*server=*/0, &probe, on_warmup);
  req_node = &net.node(1);

  // Run until the stream finishes (cap at a generous simulated budget).
  const sim::Duration cap = static_cast<sim::Duration>(options.ops) *
                                400 * sim::kMillisecond +
                            10 * sim::kSecond;
  while (!probe.finished && net.sim().now() < cap) {
    net.run_for(200 * sim::kMillisecond);
  }
  net.check_clients();

  StreamResult r;
  r.completed = probe.completed;
  r.finished = probe.finished;
  r.retransmits = net.sim().metrics().total(stats::Counter::kRetransmits);
  r.busy_nacks = net.sim().metrics().total(stats::Counter::kBusyNacks);
  {
    std::ostringstream os;
    stats::dump_json(os, net.sim().metrics(),
                     std::string("stream_") + to_string(options.kind));
    r.metrics_jsonl = os.str();
  }
  if (!probe.finished || options.ops <= options.warmup) return r;

  const double n = options.ops - options.warmup;
  r.ms_per_op = sim::to_ms(probe.done_at - probe.warmup_at) / n;
  r.packets_per_op =
      static_cast<double>(net.bus().frames_sent() - probe.warmup_packets) / n;
  const double bytes =
      static_cast<double>(net.bus().bytes_sent() - probe.warmup_bytes) / n;
  r.bytes_per_op = bytes;
  r.wire_ms_per_op =
      bytes * static_cast<double>(net.bus().config().us_per_byte) / 1000.0;
  for (int c = 0; c < static_cast<int>(CostCategory::kCount); ++c) {
    const auto cat = static_cast<CostCategory>(c);
    r.cost_ms[c] = sim::to_ms(server_node->ledger().total(cat) +
                              req_node->ledger().total(cat)) /
                   n;
  }
  return r;
}

}  // namespace soda::bench
