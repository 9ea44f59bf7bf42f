// perfbench: the repository benchmark's program. It builds each workload
// through the simulator's public API, times the calls into every layer
// from the outside, and writes one JSON document of raw results that
// perfbench/run.py turns into the reported metrics and checks.
//
//   perfbench --workload inet_rpc|pool_storm|chaos_sweep --seed N
//             --seconds S --trace 0|1 --out FILE [--spans FILE]
//   perfbench --workload fidelity --out FILE
//
// Every workload runs the partitioned epoch-2 engine serially on this one
// thread (one partition per segment, or per node on a single bus), the way
// soda_chaos runs it. A run is one warm-up repeat of the (workload, seed),
// then measured repeats until --seconds have elapsed, each followed by five
// set-up-only builds; every repeat re-checks the trace hash and the
// deterministic counters. Between pieces of the work a fixed reference
// loop is timed, which tells run.py how fast the host ran. With --trace 1
// one more repeat, between the warm-up and the measured ones, is traced:
// its windows are stepped through begin_window / execute_partition_window /
// commit_window and its observer calls are timed; the spans stay in memory
// and go to --spans at exit.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "benchsupport/stream.h"
#include "chaos/invariants.h"
#include "chaos/runner.h"
#include "chaos/scenario.h"
#include "chaos/workload.h"
#include "core/network.h"
#include "inet/internet.h"
#include "sodal/service.h"
#include "sodal/sodal.h"

namespace {

using namespace soda;
using Clock = std::chrono::steady_clock;
using sim::TraceCategory;
using sim::TraceStatus;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ------------------------------------------------------- host reference

/// A fixed piece of work that uses none of the simulator: 60,000 random
/// read-modify-writes of counters spread over 2 MiB, the cache-missing
/// traffic of the simulator's working set. It allocates nothing after its
/// first call, so the state of the heap does not change its speed. Returns
/// its wall time. Run between pieces of a workload (after every chaos seed,
/// every kReferenceEveryS of an RPC run, after every set-up-only build), it
/// measures how fast the host runs at that moment, so run.py can report
/// host time scaled to a host that runs the reference in
/// kReferenceNominalS. On a host shared with other machines the raw speed
/// drifts by tens of percent within a minute; the workload and the
/// reference drift together.
constexpr double kReferenceNominalS = 0.5e-3;
constexpr double kReferenceEveryS = 0.02;

double reference_s() {
  static std::vector<std::uint64_t> counters(1u << 18);
  static volatile std::uint64_t sink = 0;
  const auto t0 = Clock::now();
  std::uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 60000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    counters[(x * 0x9E3779B97F4A7C15ull) >> 46] += x;
  }
  sink = sink + counters[x >> 46];
  return seconds_between(t0, Clock::now());
}

std::uint64_t peak_rss_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::uint64_t kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtoull(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

// ------------------------------------------------------------------ spans

/// The layer boundaries the traced run records spans at.
enum Layer : int {
  kSetupTopology,  // Network / Internet construction, partitions, observer
  kSetupNodes,     // add_node + install_client (+ add_gateway)
  kRunLoop,        // one repeat's whole run phase
  kWindowPlace,    // Simulator::begin_window
  kWindowExec,     // execute_partition_window over the window's partitions
  kWindowCommit,   // Simulator::commit_window (observer calls nest inside)
  kObsHash,        // chaos::hash_event
  kObsInvariants,  // chaos::InvariantSet::on_event
  kChaosRun,       // one chaos::run_scenario call
  kNumLayers,
};

const char* const kLayerNames[kNumLayers] = {
    "setup.topology",    "setup.nodes",      "run",
    "sim.window_place",  "sim.window_exec",  "sim.window_commit",
    "obs.hash",          "obs.invariants",   "chaos.run_scenario",
};

/// In-memory span recorder. Coarse spans (setup, run, run_scenario) are
/// all kept; the per-window and per-observer-call spans are summed per
/// layer and one in kSampleEvery of them is kept, so a multi-million-event
/// run does not grow the process by hundreds of MB.
class Spans {
 public:
  static constexpr std::uint64_t kSampleEvery = 4096;

  struct Span {
    Layer layer;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
  };

  explicit Spans(bool on) : on_(on), origin_(Clock::now()) {}

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  int open(Layer l) {
    if (!on_) return -1;
    spans_.push_back(Span{l, now_ns(), -1, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int id) {
    if (id < 0) return;
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = now_ns();
    total_ns_[s.layer] += s.end_ns - s.start_ns;
    ++count_[s.layer];
    stack_.pop_back();
  }

  /// A fine-grained span measured by the caller.
  void add(Layer l, std::int64_t start_ns, std::int64_t end_ns) {
    total_ns_[l] += end_ns - start_ns;
    if (count_[l]++ % kSampleEvery == 0) {
      spans_.push_back(
          Span{l, start_ns, end_ns, stack_.empty() ? -1 : stack_.back()});
    }
  }

  double total_s(Layer l) const { return static_cast<double>(total_ns_[l]) * 1e-9; }

  void write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"parent\":%d,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld}\n",
                   i, s.parent, kLayerNames[s.layer],
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    for (int l = 0; l < kNumLayers; ++l) {
      std::fprintf(f,
                   "{\"layer\":\"%s\",\"total_s\":%.9f,\"count\":%llu,"
                   "\"sampled_1_in\":%llu}\n",
                   kLayerNames[l], total_s(static_cast<Layer>(l)),
                   static_cast<unsigned long long>(count_[l]),
                   static_cast<unsigned long long>(
                       l >= kWindowPlace && l <= kObsInvariants ? kSampleEvery
                                                                : 1));
    }
    std::fclose(f);
  }

 private:
  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::int64_t total_ns_[kNumLayers] = {};
  std::uint64_t count_[kNumLayers] = {};
};

// ------------------------------------------------------ request lifecycle

/// Latency samples as an exact histogram (simulated microseconds -> count).
using Histogram = std::map<std::int64_t, std::uint64_t>;

/// Rebuilds each request's lifecycle from the trace stream, keyed by
/// (requester node, tid): issue -> delivered to the server's kernel -> the
/// server issues its ACCEPT -> terminal completion at the requester. The
/// three stages add up to the request's latency. A request whose requester
/// dies first is terminal too (its incarnation's pending table is gone).
/// Counts every terminal state once and flags a second one or a completion
/// without an issue.
class Lifecycle {
 public:
  struct Stamps {
    sim::Time issued = 0;
    sim::Time delivered = -1;
    sim::Time accepted = -1;
  };

  void on_event(const sim::TraceEvent& e) {
    switch (e.category) {
      case TraceCategory::kRequestIssued:
        if (!open_.emplace(key(e.node, e.tid), Stamps{e.at}).second) {
          ++errors;
        }
        ++issued;
        break;
      case TraceCategory::kRequestDelivered:
        if (auto it = open_.find(key(e.peer, e.tid));
            it != open_.end() && it->second.delivered < 0) {
          it->second.delivered = e.at;
        }
        break;
      case TraceCategory::kAcceptIssued:
        if (auto it = open_.find(key(e.peer, e.tid));
            it != open_.end() && it->second.delivered >= 0 &&
            it->second.accepted < 0) {
          it->second.accepted = e.at;
        }
        break;
      case TraceCategory::kRequestCompleted: {
        auto it = open_.find(key(e.node, e.tid));
        if (it == open_.end()) {
          ++errors;
          break;
        }
        const Stamps s = it->second;
        open_.erase(it);
        if (e.status == TraceStatus::kCompleted) {
          ++ok;
        } else {
          ++failed;
        }
        ++total[e.at - s.issued];
        if (s.delivered >= 0) {
          ++issue_to_deliver[s.delivered - s.issued];
          if (s.accepted >= 0) {
            ++deliver_to_accept[s.accepted - s.delivered];
            ++accept_to_complete[e.at - s.accepted];
          }
        }
        break;
      }
      case TraceCategory::kBoot:
        if (e.status == TraceStatus::kDie || e.status == TraceStatus::kKilled) {
          abandon(e.node);
        }
        break;
      default:
        break;
    }
  }

  /// Close one simulation: returns how many requests never terminated and
  /// forgets them (tids restart in the next simulation).
  std::size_t end_run() {
    const std::size_t n = open_.size();
    open_.clear();
    return n;
  }

  std::uint64_t issued = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;  // non-success completion, or requester died
  std::uint64_t errors = 0;  // reissued tid, or completion without issue
  Histogram total;
  Histogram issue_to_deliver;
  Histogram deliver_to_accept;
  Histogram accept_to_complete;

 private:
  static std::uint64_t key(int node, std::int32_t tid) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(node)) << 32) |
           static_cast<std::uint32_t>(tid);
  }

  void abandon(int node) {
    for (auto it = open_.begin(); it != open_.end();) {
      if (static_cast<int>(it->first >> 32) == node) {
        ++failed;
        it = open_.erase(it);
      } else {
        ++it;
      }
    }
  }

  std::unordered_map<std::uint64_t, Stamps> open_;
};

// ---------------------------------------------------------------- results

/// One repeat of a workload. `counts` are deterministic and must repeat
/// exactly; `host` holds host-time splits.
struct Repeat {
  const char* phase = "measured";  // "warmup", "traced" or "measured"
  double run_s = 0;
  double ref_s = 0;         // time of the reference_s() calls in the repeat
  std::uint64_t ref_n = 0;  // ... and how many there were
  double sim_s = 0;
  std::uint64_t ops_attempted = 0;
  std::uint64_t ops_ok = 0;
  std::uint64_t ops_failed = 0;
  std::uint64_t trace_hash = 0;
  std::uint64_t violations = 0;
  std::uint64_t sim_runs = 1;     // simulations this repeat executed
  std::uint64_t failed_runs = 0;  // ... of which broke a correctness check
  std::string first_violation;
  std::uint64_t terminal_errors = 0;  // ops not in exactly one terminal state
  std::vector<std::pair<std::string, std::uint64_t>> counts;
  std::vector<std::pair<std::string, double>> host;
  Histogram latency;  // issue -> terminal completion, simulated us
  std::vector<std::pair<std::string, Histogram>> req;  // traced only
  std::vector<double> per_seed_run_ms;                   // chaos_sweep only
};

/// Off in the warm-up repeat, so that the peak RSS read after it does not
/// count the reference's 2 MiB.
bool g_reference_on = false;

void take_reference(Repeat& r) {
  if (!g_reference_on) return;
  r.ref_s += reference_s();
  ++r.ref_n;
}

void write_hist(std::FILE* f, const Histogram& h) {
  std::fputc('{', f);
  bool first = true;
  for (const auto& [v, n] : h) {
    std::fprintf(f, "%s\"%lld\":%llu", first ? "" : ",",
                 static_cast<long long>(v), static_cast<unsigned long long>(n));
    first = false;
  }
  std::fputc('}', f);
}

void write_json_string(std::FILE* f, const std::string& s) {
  std::fputc('"', f);
  for (char c : s) {
    if (c == '"' || c == '\\') std::fputc('\\', f);
    if (static_cast<unsigned char>(c) < 0x20) c = ' ';
    std::fputc(c, f);
  }
  std::fputc('"', f);
}

void write_repeat(std::FILE* f, const Repeat& r) {
  std::fprintf(f,
               "{\"phase\":\"%s\",\"run_s\":%.9g,"
               "\"ref_s\":%.9g,\"ref_n\":%llu,"
               "\"sim_s\":%.9g,"
               "\"ops_attempted\":%llu,\"ops_ok\":%llu,\"ops_failed\":%llu,"
               "\"trace_hash\":\"%016llx\","
               "\"violations\":%llu,\"sim_runs\":%llu,\"failed_runs\":%llu,"
               "\"terminal_errors\":%llu,\"first_violation\":",
               r.phase, r.run_s, r.ref_s,
               static_cast<unsigned long long>(r.ref_n), r.sim_s,
               static_cast<unsigned long long>(r.ops_attempted),
               static_cast<unsigned long long>(r.ops_ok),
               static_cast<unsigned long long>(r.ops_failed),
               static_cast<unsigned long long>(r.trace_hash),
               static_cast<unsigned long long>(r.violations),
               static_cast<unsigned long long>(r.sim_runs),
               static_cast<unsigned long long>(r.failed_runs),
               static_cast<unsigned long long>(r.terminal_errors));
  write_json_string(f, r.first_violation);
  std::fputs(",\"counts\":{", f);
  for (std::size_t i = 0; i < r.counts.size(); ++i) {
    std::fprintf(f, "%s\"%s\":%llu", i ? "," : "", r.counts[i].first.c_str(),
                 static_cast<unsigned long long>(r.counts[i].second));
  }
  std::fputs("},\"host\":{", f);
  for (std::size_t i = 0; i < r.host.size(); ++i) {
    std::fprintf(f, "%s\"%s\":%.9g", i ? "," : "", r.host[i].first.c_str(),
                 r.host[i].second);
  }
  std::fputs("},\"latency_us\":", f);
  write_hist(f, r.latency);
  std::fputs(",\"req\":{", f);
  for (std::size_t i = 0; i < r.req.size(); ++i) {
    std::fprintf(f, "%s\"%s\":", i ? "," : "", r.req[i].first.c_str());
    write_hist(f, r.req[i].second);
  }
  std::fputs("},\"per_seed_run_ms\":[", f);
  for (std::size_t i = 0; i < r.per_seed_run_ms.size(); ++i) {
    std::fprintf(f, "%s%.6g", i ? "," : "", r.per_seed_run_ms[i]);
  }
  std::fputs("]}", f);
}

// ------------------------------------------------- star-RPC and pool storm

/// The pattern the benchmark's servers advertise (the scaling harness's).
constexpr Pattern kServicePattern = kWellKnownBit | 0x5CA1;

struct RpcShape {
  int nodes = 0;
  int servers = 0;   // MIDs [0, servers) serve
  int segments = 1;  // > 1: an inet::Internet with one hub gateway
  bool pool = false;  // clients address the anycast pool of all servers
  int ops_per_client = 0;
  sim::Duration service_time = 0;  // server dawdle before accepting
  std::uint32_t payload = 64;
};

/// inet_rpc: star-RPC, 1024 nodes on 2 segments joined by one hub gateway,
/// 128 echo servers, 896 closed-loop clients.
RpcShape inet_rpc_shape() {
  return RpcShape{1024, 128, 2, false, 48, 0, 64};
}

/// pool_storm: 8-server anycast pool (100 us service, adaptive admission)
/// against 120 closed-loop clients with no think time, on one bus.
RpcShape pool_storm_shape() {
  return RpcShape{128, 8, 1, true, 400, 100, 64};
}

/// Client-side op accounting shared by every load client.
struct OpLog {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  int finished = 0;
  Histogram latency;

  void done(sim::Duration took, bool success) {
    ++latency[took];
    ++(success ? ok : failed);
  }
};

class EchoServer final : public sodal::SodalClient {
 public:
  explicit EchoServer(sim::Duration service) : service_(service) {}

  sim::Task on_boot(Mid) override {
    advertise(kServicePattern);
    co_return;
  }

  sim::Task on_entry(HandlerArgs a) override {
    if (service_ > 0) co_await delay(service_);
    Bytes in;
    co_await accept_current_exchange(a.arg, &in, a.put_size,
                                     Bytes(a.get_size));
  }

 private:
  sim::Duration service_;
};

/// Closed loop: the next blocking EXCHANGE goes out only when the previous
/// one reached a terminal state. Star clients round-robin over the server
/// MIDs; pool clients seed their anycast member set with one DISCOVER and
/// then address the pool.
class LoadClient final : public sodal::SodalClient {
 public:
  LoadClient(const RpcShape& shape, OpLog* log, int slot)
      : shape_(shape), log_(log), slot_(slot) {}

  sim::Task on_task() override {
    ServerSignature pool_sig{};
    if (shape_.pool) {
      // Staggered so a hundred boot-time broadcasts do not share a slot.
      co_await delay(static_cast<sim::Duration>(slot_) * 150);
      co_await discover(kServicePattern);
      pool_sig = sodal::ServiceHandle::pool(kServicePattern).signature();
    }
    for (int i = 0; i < shape_.ops_per_client; ++i) {
      const ServerSignature server =
          shape_.pool ? pool_sig
                      : ServerSignature{
                            static_cast<Mid>((my_mid() + i) % shape_.servers),
                            kServicePattern};
      Bytes in;
      ++log_->attempted;
      const sim::Time issued = sim().now();
      auto c = co_await b_exchange(server, i, Bytes(shape_.payload), &in,
                                   shape_.payload);
      log_->done(sim().now() - issued, c.ok());
    }
    ++log_->finished;
    co_await park_forever();
  }

 private:
  RpcShape shape_;
  OpLog* log_;
  int slot_;
};

/// The trace observer: the FNV chain and the standard invariant checkers,
/// as soda_chaos runs them. In a traced repeat each call is timed and the
/// request lifecycle is rebuilt alongside.
struct Observer {
  std::uint64_t hash = chaos::kTraceHashSeed;
  std::uint64_t events = 0;
  chaos::InvariantSet invariants = chaos::InvariantSet::standard();
  Spans* spans = nullptr;        // non-null in the traced repeat
  Lifecycle* lifecycle = nullptr;

  void operator()(const sim::TraceEvent& e) {
    ++events;
    if (spans == nullptr) {
      hash = chaos::hash_event(hash, e);
      invariants.on_event(e);
      return;
    }
    const std::int64_t t0 = spans->now_ns();
    hash = chaos::hash_event(hash, e);
    const std::int64_t t1 = spans->now_ns();
    invariants.on_event(e);
    const std::int64_t t2 = spans->now_ns();
    spans->add(kObsHash, t0, t1);
    spans->add(kObsInvariants, t1, t2);
    lifecycle->on_event(e);
  }
};

/// One built star-RPC / pool topology, ready to run.
struct RpcWorld {
  std::unique_ptr<Network> single;
  std::unique_ptr<inet::Internet> internet;
  Observer observer;
  OpLog log;
  int clients = 0;

  RpcWorld() = default;
  RpcWorld(const RpcWorld&) = delete;  // the trace observer holds `this`
  RpcWorld& operator=(const RpcWorld&) = delete;

  sim::Simulator& sim() { return single ? single->sim() : internet->sim(); }
  net::Bus& bus(int s) { return single ? single->bus() : internet->bus(s); }

  ~RpcWorld() {
    // The trace observer references this object; drop it first.
    if (single || internet) sim().trace().set_observer(nullptr);
  }
};

NodeConfig rpc_node_config(const RpcShape& shape) {
  NodeConfig cfg;
  cfg.timing = TimingModel::fast();
  cfg.timing.batched_timer_bookkeeping = true;
  cfg.timing.adaptive_busy_backoff = true;
  cfg.timing.exponential_retransmit_backoff = true;
  cfg.nic_pattern_filter = true;
  cfg.adaptive_admission = shape.pool;
  return cfg;
}

/// Build the topology and boot every node, timing the two setup layers.
std::unique_ptr<RpcWorld> build_rpc(const RpcShape& shape, std::uint64_t seed,
                                    Spans& spans, double* topology_s,
                                    double* nodes_s) {
  auto w = std::make_unique<RpcWorld>();
  const auto t0 = Clock::now();
  const int top = spans.open(kSetupTopology);
  if (shape.segments > 1) {
    inet::Internet::Options o;
    o.seed = seed;
    o.segments = shape.segments;
    o.bus = net::BusConfig::fast();
    o.gateway = inet::GatewayConfig::fast();
    w->internet = std::make_unique<inet::Internet>(std::move(o));
  } else {
    Network::Options o;
    o.seed = seed;
    o.bus = net::BusConfig::fast();
    w->single = std::make_unique<Network>(o);
  }
  sim::Simulator& sim = w->sim();
  sim.enable_partitions(shape.segments > 1 ? shape.segments : shape.nodes);
  sim.trace().enable_all();
  sim.trace().set_store(false);
  RpcWorld* raw = w.get();
  sim.trace().set_observer(
      [raw](const sim::TraceEvent& e) { raw->observer(e); });
  spans.close(top);
  const auto t1 = Clock::now();

  const int nodes = spans.open(kSetupNodes);
  w->clients = shape.nodes - shape.servers;
  for (int mid = 0; mid < shape.nodes; ++mid) {
    Node& n = w->single
                  ? w->single->add_node(rpc_node_config(shape))
                  : w->internet->add_node(mid % shape.segments,
                                          rpc_node_config(shape));
    std::unique_ptr<Client> c;
    if (mid < shape.servers) {
      c = std::make_unique<EchoServer>(shape.service_time);
    } else {
      c = std::make_unique<LoadClient>(shape, &w->log, mid - shape.servers);
    }
    n.install_client(std::move(c), n.mid());
  }
  // The hub gateway takes the next MID after the nodes.
  if (w->internet) w->internet->add_gateway();
  spans.close(nodes);
  const auto t2 = Clock::now();

  sim.set_lookahead(w->single ? w->single->bus().config().propagation
                              : w->internet->lookahead());
  *topology_s = seconds_between(t0, t1);
  *nodes_s = seconds_between(t1, t2);
  return w;
}

/// Run one repeat: build, drive in 2 ms slices until every client finished,
/// then read the layer counters.
Repeat run_rpc_repeat(const RpcShape& shape, std::uint64_t seed, Spans& spans,
                      bool traced) {
  Repeat r;
  double topology_s = 0;
  double nodes_s = 0;
  Spans quiet(false);
  Spans& sp = traced ? spans : quiet;
  auto w = build_rpc(shape, seed, sp, &topology_s, &nodes_s);
  sim::Simulator& sim = w->sim();
  Lifecycle lifecycle;
  if (traced) {
    w->observer.spans = &spans;
    w->observer.lifecycle = &lifecycle;
  }

  constexpr sim::Duration kSlice = 2 * sim::kMillisecond;
  constexpr sim::Time kMaxSimTime = 120 * sim::kSecond;
  std::uint64_t executed = 0;
  std::uint64_t windows = 0;
  std::uint64_t queue_depth_max = 0;
  const int run = sp.open(kRunLoop);
  const auto t0 = Clock::now();
  auto last_ref = t0;
  while (w->log.finished < w->clients && sim.now() < kMaxSimTime) {
    const sim::Time deadline = sim.now() + kSlice;
    if (!traced) {
      executed += sim.run_until(deadline);
    } else {
      // The window protocol run_until walks, one step at a time.
      for (;;) {
        const std::int64_t a = spans.now_ns();
        const bool more = sim.begin_window(deadline);
        const std::int64_t b = spans.now_ns();
        spans.add(kWindowPlace, a, b);
        if (!more) break;
        for (int p : sim.window_partitions()) sim.execute_partition_window(p);
        const std::int64_t c = spans.now_ns();
        spans.add(kWindowExec, b, c);
        executed += sim.commit_window();
        spans.add(kWindowCommit, c, spans.now_ns());
        ++windows;
      }
      sim.run_until(deadline);  // nothing left before it: advances the clock
    }
    if (w->internet) {
      for (const auto& g : w->internet->gateways()) {
        for (std::size_t d : g->queue_depths()) {
          queue_depth_max = std::max<std::uint64_t>(queue_depth_max, d);
        }
      }
    }
    if (seconds_between(last_ref, Clock::now()) >= kReferenceEveryS) {
      take_reference(r);
      last_ref = Clock::now();
    }
  }
  if (r.ref_n == 0) take_reference(r);
  const auto t1 = Clock::now();
  sp.close(run);
  r.run_s = seconds_between(t0, t1) - r.ref_s;

  if (w->single) {
    w->single->check_clients();
  } else {
    w->internet->check_clients();
  }
  w->observer.invariants.finish(sim.now());
  const auto v = w->observer.invariants.violations();
  r.violations = v.size();
  if (!v.empty()) r.first_violation = v.front().invariant + ": " + v.front().detail;
  r.trace_hash = w->observer.hash;
  r.sim_s = sim::to_ms(sim.now()) / 1e3;
  r.ops_attempted = w->log.attempted;
  r.ops_ok = w->log.ok;
  r.ops_failed = w->log.failed;
  const std::uint64_t expected = static_cast<std::uint64_t>(w->clients) *
                                 static_cast<std::uint64_t>(shape.ops_per_client);
  // Every op must have been issued and reached exactly one terminal state.
  if (w->log.finished != w->clients || r.ops_attempted != expected ||
      r.ops_ok + r.ops_failed != r.ops_attempted) {
    r.terminal_errors = expected > r.ops_ok + r.ops_failed
                            ? expected - (r.ops_ok + r.ops_failed)
                            : 1;
  }
  r.latency = w->log.latency;

  const int segments = shape.segments > 1 ? shape.segments : 1;
  std::uint64_t frames_sent = 0, frames_filtered = 0, frames_corrupted = 0,
                bytes_sent = 0;
  for (int s = 0; s < segments; ++s) {
    net::Bus& b = w->bus(s);
    frames_sent += b.frames_sent();
    frames_filtered += b.frames_filtered();
    frames_corrupted += b.frames_corrupted();
    bytes_sent += b.bytes_sent();
  }
  std::uint64_t relayed = 0, relay_drops = 0, coalesced = 0, pattern_fwd = 0;
  if (w->internet) {
    for (const auto& g : w->internet->gateways()) {
      relayed += g->forwarded();
      relay_drops += g->ttl_drops() + g->overflow_drops();
      coalesced += g->coalesced();
      pattern_fwd += g->pattern_forwards();
    }
  }
  const auto& hub = sim.metrics();
  using stats::Counter;
  r.counts = {
      {"sim.events_executed", executed},
      {"sim.events_scheduled", sim.events_scheduled()},
      {"sim.events_cancelled", sim.events_cancelled()},
      {"sim.lookahead_violations", sim.lookahead_violations()},
      {"obs.trace_events", w->observer.events},
      {"net.frames_sent", frames_sent},
      {"net.frames_filtered", frames_filtered},
      {"net.frames_dropped", hub.total(Counter::kFramesDropped)},
      {"net.frames_corrupted", frames_corrupted},
      {"net.bytes_sent", bytes_sent},
      {"proto.retransmits", hub.total(Counter::kRetransmits)},
      {"proto.busy_nacks", hub.total(Counter::kBusyNacks)},
      {"proto.duplicates_suppressed", hub.total(Counter::kDuplicatesSuppressed)},
      {"proto.records_opened", hub.total(Counter::kRecordsOpened)},
      {"proto.records_expired", hub.total(Counter::kRecordsExpired)},
      {"proto.probes_sent", hub.total(Counter::kProbesSent)},
      {"core.requests_issued", hub.total(Counter::kRequestsIssued)},
      {"core.requests_completed", hub.total(Counter::kRequestsCompleted)},
      {"core.shed_offers", hub.total(Counter::kShedOffers)},
      {"core.timedout", hub.total(Counter::kBusyBudgetExhausted)},
      {"core.crashes_detected", hub.total(Counter::kCrashesDetected)},
      {"core.handler_invocations", hub.total(Counter::kHandlerInvocations)},
      {"core.cpu_busy_us", hub.total(Counter::kCpuBusyMicros)},
      {"inet.frames_relayed", relayed},
      {"inet.relay_drops", relay_drops},
      {"inet.coalesced", coalesced},
      {"inet.pattern_forwards", pattern_fwd},
      {"inet.queue_depth_max", queue_depth_max},
  };
  if (traced) {
    r.counts.emplace_back("sim.windows", windows);
    r.host = {
        {"setup.topology_s", topology_s},
        {"setup.nodes_s", nodes_s},
        {"sim.window_place_s", spans.total_s(kWindowPlace)},
        {"sim.window_exec_s", spans.total_s(kWindowExec)},
        {"sim.window_commit_s", spans.total_s(kWindowCommit)},
        {"obs.hash_s", spans.total_s(kObsHash)},
        {"obs.invariants_s", spans.total_s(kObsInvariants)},
    };
    r.terminal_errors += lifecycle.errors + lifecycle.end_run();
    r.req = {{"issue_to_deliver", lifecycle.issue_to_deliver},
             {"deliver_to_accept", lifecycle.deliver_to_accept},
             {"accept_to_complete", lifecycle.accept_to_complete}};
  } else {
    r.host = {{"setup.topology_s", topology_s}, {"setup.nodes_s", nodes_s}};
  }
  r.failed_runs = r.violations != 0 || sim.lookahead_violations() != 0 ||
                          r.terminal_errors != 0
                      ? 1
                      : 0;
  w->observer.spans = nullptr;
  w->observer.lifecycle = nullptr;
  return r;
}

// ------------------------------------------------------------ chaos sweep

constexpr int kChaosSeedsPerRepeat = 200;

/// Rides run_scenario's trace stream as an extra checker (it never fails
/// a run): the request lifecycle plus per-category counts of the layers
/// run_scenario does not expose counters for.
class ChaosTap final : public chaos::Invariant {
 public:
  explicit ChaosTap(Lifecycle* lc, std::map<std::string, std::uint64_t>* n)
      : lc_(lc), n_(n) {}
  std::string_view name() const override { return "perfbench-tap"; }
  void on_event(const sim::TraceEvent& e) override {
    lc_->on_event(e);
    auto& n = *n_;
    switch (e.category) {
      case TraceCategory::kRetransmit:
        ++n["proto.retransmits"];
        if (e.status == TraceStatus::kBusyRetry) ++n["proto.busy_nacks"];
        break;
      case TraceCategory::kConnectionOpened:
        ++n["proto.records_opened"];
        break;
      case TraceCategory::kConnectionClosed:
        ++n["proto.records_expired"];
        break;
      case TraceCategory::kProbe:
        if (e.status == TraceStatus::kQuery) ++n["proto.probes_sent"];
        break;
      case TraceCategory::kCrashDetected:
        ++n["core.crashes_detected"];
        break;
      case TraceCategory::kHandlerInvoked:
        ++n["core.handler_invocations"];
        break;
      case TraceCategory::kPacketDropped:
        ++n["net.frames_dropped"];
        if (e.status == TraceStatus::kCrcDropped) ++n["net.frames_corrupted"];
        break;
      case TraceCategory::kOther:
        if (e.status == TraceStatus::kShed) ++n["core.shed_offers"];
        break;
      default:
        break;
    }
  }

 private:
  Lifecycle* lc_;
  std::map<std::string, std::uint64_t>* n_;
};

/// Build (and discard) the regression scenario's topology the way
/// run_scenario does — Network, per-node partitions, skewed timing,
/// install_client — timing the two setup layers.
void time_chaos_setup(const chaos::Scenario& s, std::uint64_t seed,
                      double* topology_s, double* nodes_s) {
  const auto t0 = Clock::now();
  Network::Options o;
  o.seed = seed;
  if (s.fast) o.bus = net::BusConfig::fast();
  Network net(o);
  net.sim().enable_partitions(std::max(1, s.nodes));
  net.sim().trace().enable_all();
  net.sim().trace().set_store(false);
  const auto t1 = Clock::now();
  for (int mid = 0; mid < s.nodes; ++mid) {
    NodeConfig cfg;
    if (s.fast) cfg.timing = TimingModel::fast();
    for (const chaos::Fault& f : s.faults) {
      if (f.kind == chaos::FaultKind::kTimerSkew && f.node == mid) {
        chaos::apply_timer_skew(cfg.timing, f.factor);
      }
    }
    Node& n = net.add_node(std::move(cfg));
    n.install_client(chaos::make_workload_client(s, static_cast<Mid>(mid)),
                     n.mid());
  }
  const auto t2 = Clock::now();
  *topology_s += seconds_between(t0, t1);
  *nodes_s += seconds_between(t1, t2);
}

/// The set-up cost of one repeat: every seed's topology, built and dropped.
/// --seed 1 sweeps scenario seeds 1..200 (the CI sweep), 2 sweeps 201..400.
std::uint64_t chaos_first_seed(std::uint64_t seed) {
  return (seed - 1) * kChaosSeedsPerRepeat + 1;
}

void chaos_setup_sweep(std::uint64_t seed, double* topology_s,
                       double* nodes_s) {
  const chaos::Scenario s = *chaos::builtin_scenario("regression");
  const std::uint64_t first = chaos_first_seed(seed);
  for (int i = 0; i < kChaosSeedsPerRepeat; ++i) {
    time_chaos_setup(s, first + static_cast<std::uint64_t>(i), topology_s,
                     nodes_s);
  }
}

Repeat run_chaos_repeat(std::uint64_t seed, Spans& spans, bool traced) {
  const chaos::Scenario s = *chaos::builtin_scenario("regression");
  Repeat r;
  r.sim_runs = kChaosSeedsPerRepeat;
  Spans quiet(false);
  Spans& sp = traced ? spans : quiet;
  const std::uint64_t first = chaos_first_seed(seed);

  double topology_s = 0;
  double nodes_s = 0;
  const int setup = sp.open(kSetupNodes);
  chaos_setup_sweep(seed, &topology_s, &nodes_s);
  sp.close(setup);

  Lifecycle lifecycle;
  std::map<std::string, std::uint64_t> tap;
  const chaos::InvariantFactory extra = [&] {
    std::vector<std::unique_ptr<chaos::Invariant>> v;
    v.push_back(std::make_unique<ChaosTap>(&lifecycle, &tap));
    return v;
  };
  chaos::RunStats sum;
  std::uint64_t hash = chaos::kTraceHashSeed;
  std::uint64_t lookahead_violations = 0;
  const int run = sp.open(kRunLoop);
  for (int i = 0; i < kChaosSeedsPerRepeat; ++i) {
    const std::uint64_t cs = first + static_cast<std::uint64_t>(i);
    const std::uint64_t errors_before = lifecycle.errors;
    const int one = sp.open(kChaosRun);
    const auto a = Clock::now();
    const chaos::RunResult res = chaos::run_scenario(s, cs, extra);
    const auto b = Clock::now();
    sp.close(one);
    take_reference(r);
    const double ms = seconds_between(a, b) * 1e3;
    r.run_s += ms / 1e3;
    r.per_seed_run_ms.push_back(ms);
    r.sim_s += sim::to_ms(s.end_time()) / 1e3;
    hash = chaos::fnv_u64(hash, res.trace_hash);
    lookahead_violations += res.lookahead_violations;
    r.violations += res.violations.size();
    if (!res.violations.empty() && r.first_violation.empty()) {
      r.first_violation = "seed " + std::to_string(cs) + ": " +
                          res.violations.front().invariant + ": " +
                          res.violations.front().detail;
    }
    sum.requests_issued += res.stats.requests_issued;
    sum.requests_completed += res.stats.requests_completed;
    sum.ok_completions += res.stats.ok_completions;
    sum.timedout_completions += res.stats.timedout_completions;
    sum.duplicates_suppressed += res.stats.duplicates_suppressed;
    sum.frames_sent += res.stats.frames_sent;
    sum.frames_lost += res.stats.frames_lost;
    sum.frames_duplicated += res.stats.frames_duplicated;
    sum.events += res.stats.events;
    // Requests still open at the end of one seed never terminated.
    const std::size_t never_terminated = lifecycle.end_run();
    r.terminal_errors += never_terminated;
    if (!res.violations.empty() || res.lookahead_violations != 0 ||
        never_terminated != 0 || lifecycle.errors != errors_before) {
      ++r.failed_runs;
    }
  }
  sp.close(run);
  r.trace_hash = hash;
  r.ops_attempted = lifecycle.issued;
  r.ops_ok = lifecycle.ok;
  r.ops_failed = lifecycle.failed;
  r.terminal_errors += lifecycle.errors;
  if (r.ops_ok + r.ops_failed != r.ops_attempted ||
      r.ops_attempted != sum.requests_issued ||
      r.ops_ok != sum.ok_completions) {
    r.terminal_errors += 1;
    r.failed_runs = std::max<std::uint64_t>(r.failed_runs, 1);
  }
  r.latency = lifecycle.total;
  r.counts = {
      {"sim.lookahead_violations", lookahead_violations},
      {"obs.trace_events", sum.events},
      {"net.frames_sent", sum.frames_sent},
      {"proto.duplicates_suppressed", sum.duplicates_suppressed},
      {"core.requests_issued", sum.requests_issued},
      {"core.requests_completed", sum.requests_completed},
      {"core.timedout", sum.timedout_completions},
      {"chaos.frames_lost", sum.frames_lost},
      {"chaos.frames_duplicated", sum.frames_duplicated},
  };
  for (const auto& [k, n] : tap) r.counts.emplace_back(k, n);
  r.host = {{"setup.topology_s", topology_s}, {"setup.nodes_s", nodes_s}};
  if (traced) {
    r.req = {{"issue_to_deliver", lifecycle.issue_to_deliver},
             {"deliver_to_accept", lifecycle.deliver_to_accept},
             {"accept_to_complete", lifecycle.accept_to_complete}};
  }
  return r;
}

// --------------------------------------------------------------- fidelity

/// The 72 points of the §5.5 SODA Performance tables (six tables of twelve
/// word counts), recomputed through bench::run_stream.
int run_fidelity(const std::string& out) {
  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) return 2;
  const std::uint32_t words[] = {0,   1,   100, 200, 300, 400,
                                 500, 600, 700, 800, 900, 1000};
  std::fputs("{\"points\":[", f);
  bool first = true;
  for (bool pipelined : {false, true}) {
    for (auto kind : {bench::OpKind::kPut, bench::OpKind::kGet,
                      bench::OpKind::kExchange}) {
      for (std::uint32_t w : words) {
        bench::StreamOptions o;
        o.kind = kind;
        o.words = w;
        o.pipelined = pipelined;
        const bench::StreamResult r = bench::run_stream(o);
        std::fprintf(f,
                     "%s{\"op\":\"%s\",\"pipelined\":%s,\"words\":%u,"
                     "\"finished\":%s,\"ms_per_op\":%.17g,"
                     "\"packets_per_op\":%.17g}",
                     first ? "" : ",", bench::to_string(kind),
                     pipelined ? "true" : "false", w,
                     r.finished ? "true" : "false", r.ms_per_op,
                     r.packets_per_op);
        first = false;
      }
    }
  }
  std::fputs("]}\n", f);
  std::fclose(f);
  return 0;
}

// ------------------------------------------------------------------- main

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out;
  std::string spans;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--out") a.out = v;
    else if (k == "--spans") a.spans = v;
    else throw std::invalid_argument("unknown flag " + k);
  }
  if (a.seed < 1) throw std::invalid_argument("--seed must be >= 1");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  try {
    a = parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  if (a.out.empty()) {
    std::fprintf(stderr, "perfbench: --out is required\n");
    return 2;
  }
  if (a.workload == "fidelity") return run_fidelity(a.out);

  std::function<Repeat(Spans&, bool)> repeat;
  std::function<double()> setup_only;
  if (a.workload == "inet_rpc" || a.workload == "pool_storm") {
    const RpcShape shape =
        a.workload == "inet_rpc" ? inet_rpc_shape() : pool_storm_shape();
    repeat = [shape, seed = a.seed](Spans& sp, bool traced) {
      return run_rpc_repeat(shape, seed, sp, traced);
    };
    setup_only = [shape, seed = a.seed] {
      Spans quiet(false);
      double topology_s = 0;
      double nodes_s = 0;
      build_rpc(shape, seed, quiet, &topology_s, &nodes_s);
      return topology_s + nodes_s;
    };
  } else if (a.workload == "chaos_sweep") {
    repeat = [seed = a.seed](Spans& sp, bool traced) {
      return run_chaos_repeat(seed, sp, traced);
    };
    setup_only = [seed = a.seed] {
      double topology_s = 0;
      double nodes_s = 0;
      chaos_setup_sweep(seed, &topology_s, &nodes_s);
      return topology_s + nodes_s;
    };
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 a.workload.c_str());
    return 2;
  }

  // The warm-up repeat pays first-touch allocation; it is checked like
  // every other repeat but not timed into the host-time metrics. The
  // set-up-only builds are spread across the measured phase so that their
  // median, like the repeats', samples the whole run.
  constexpr int kSetupsPerRepeat = 5;
  Spans spans(a.trace);
  std::vector<Repeat> repeats;
  repeats.push_back(repeat(spans, false));
  repeats.back().phase = "warmup";
  // Read here: every repeat leaks its parked client coroutines, so a later
  // reading would grow with the number of repeats the host had time for.
  const std::uint64_t rss_kb = peak_rss_kb();
  g_reference_on = true;
  std::vector<double> setups;
  std::vector<double> setup_refs;
  if (a.trace) {
    repeats.push_back(repeat(spans, true));
    repeats.back().phase = "traced";
  }
  const auto start = Clock::now();
  do {
    repeats.push_back(repeat(spans, false));
    for (int i = 0; i < kSetupsPerRepeat; ++i) {
      setups.push_back(setup_only());
      setup_refs.push_back(reference_s());
    }
  } while (seconds_between(start, Clock::now()) < a.seconds);

  std::FILE* f = std::fopen(a.out.c_str(), "w");
  if (f == nullptr) return 2;
  std::fprintf(f,
               "{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,"
               "\"peak_rss_kb\":%llu,\"reference_nominal_s\":%.9g,"
               "\"setup_only_s\":[",
               a.workload.c_str(), static_cast<unsigned long long>(a.seed),
               a.trace ? 1 : 0, static_cast<unsigned long long>(rss_kb),
               kReferenceNominalS);
  for (std::size_t i = 0; i < setups.size(); ++i) {
    std::fprintf(f, "%s%.9g", i ? "," : "", setups[i]);
  }
  std::fputs("],\"setup_ref_s\":[", f);
  for (std::size_t i = 0; i < setup_refs.size(); ++i) {
    std::fprintf(f, "%s%.9g", i ? "," : "", setup_refs[i]);
  }
  std::fputs("],\"repeats\":[", f);
  for (std::size_t i = 0; i < repeats.size(); ++i) {
    if (i) std::fputc(',', f);
    write_repeat(f, repeats[i]);
  }
  std::fputs("]}\n", f);
  std::fclose(f);
  if (a.trace && !a.spans.empty()) spans.write(a.spans);
  return 0;
}
