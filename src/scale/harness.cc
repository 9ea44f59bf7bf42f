#include "scale/harness.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "apps/replicated_store.h"
#include "chaos/invariants.h"
#include "chaos/runner.h"
#include "inet/internet.h"
#include "sodal/nameserver.h"
#include "sodal/sodal.h"

namespace soda::scale {

namespace {

/// The pattern the scaling servers advertise (well-known, like kEchoPattern).
constexpr Pattern kScalePattern = kWellKnownBit | 0x5CA1;

/// Process peak RSS (VmHWM) in KiB from /proc/self/status; 0 when the
/// field is unavailable (non-Linux). A process-wide high-water mark, so
/// within one bench process only the largest run's row is meaningful —
/// bench_scale orders its matrix smallest-first, which is what we want
/// the 128/256-node memory story measured against.
std::uint64_t read_peak_rss_kb() {
#ifdef __linux__
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
#else
  return 0;
#endif
}

/// Shared scoreboard the load clients report into.
struct Tally {
  std::uint64_t ops_done = 0;
  int finished = 0;
  std::vector<std::uint64_t> per_client;  // fairness (contention workload)

  void op_done() { ++ops_done; }
  void finish() { ++finished; }
};

class ScaleEchoServer final : public sodal::SodalClient {
 public:
  explicit ScaleEchoServer(sim::Duration dawdle = 0) : dawdle_(dawdle) {}

  sim::Task on_boot(Mid) override {
    advertise(kScalePattern);
    co_return;
  }

  sim::Task on_entry(HandlerArgs a) override {
    if (dawdle_ > 0) co_await delay(dawdle_);
    Bytes in;
    co_await accept_current_exchange(a.arg, &in, a.put_size,
                                     Bytes(a.get_size));
  }

 private:
  sim::Duration dawdle_;
};

/// Star RPC: each client runs `ops_per_client` blocking exchanges,
/// round-robining over the server MIDs so every spoke of the star is hot.
class StarClient final : public sodal::SodalClient {
 public:
  StarClient(const HarnessOptions& o, Tally* tally) : o_(o), tally_(tally) {}

  sim::Task on_task() override {
    for (int i = 0; i < o_.ops_per_client; ++i) {
      const auto server = static_cast<Mid>((my_mid() + i) % o_.servers);
      Bytes in;
      auto c = co_await b_exchange(ServerSignature{server, kScalePattern},
                                   i, Bytes(o_.payload), &in, o_.payload);
      if (c.ok()) tally_->op_done();
    }
    tally_->finish();
    co_await park_forever();
  }

 private:
  HarnessOptions o_;
  Tally* tally_;
};

/// All-to-all DISCOVER storm: every client repeatedly broadcasts DISCOVER
/// for the server pattern. The NIC pattern filter keeps each broadcast
/// from interrupting all N-1 stations: only the servers ever see one.
class DiscoverClient final : public sodal::SodalClient {
 public:
  DiscoverClient(const HarnessOptions& o, Tally* tally)
      : o_(o), tally_(tally) {}

  sim::Task on_task() override {
    // Stagger the start so the first round isn't one synchronized burst.
    co_await delay(static_cast<sim::Duration>(my_mid()) * 20);
    for (int i = 0; i < o_.ops_per_client; ++i) {
      auto s = co_await discover(kScalePattern);
      if (s.pattern == kScalePattern) tally_->op_done();
    }
    tally_->finish();
    co_await park_forever();
  }

 private:
  HarnessOptions o_;
  Tally* tally_;
};

/// Replicated store: write through the whole replica group, read back from
/// any live replica, and count the op only if both halves check out.
class StoreClient final : public sodal::SodalClient {
 public:
  StoreClient(const HarnessOptions& o, Tally* tally) : o_(o), tally_(tally) {}

  sim::Task on_task() override {
    std::vector<ServerSignature> group;
    for (int s = 0; s < o_.servers; ++s) {
      group.push_back(
          ServerSignature{static_cast<Mid>(s), apps::kStoreReplica});
    }
    const std::string me = "c" + std::to_string(my_mid());
    for (int i = 0; i < o_.ops_per_client; ++i) {
      const std::string key = me + "-k" + std::to_string(i % 4);
      const Bytes value = sodal::to_bytes("v" + std::to_string(i));
      auto w = co_await apps::store_set(*this, group, key, value);
      auto r = co_await apps::store_get(*this, group, key);
      if (w.quorum(group.size()) && r && *r == value) tally_->op_done();
    }
    tally_->finish();
    co_await park_forever();
  }

 private:
  HarnessOptions o_;
  Tally* tally_;
};

/// Name-service storm: each client grows its own directory one binding at
/// a time and LISTs it after every bind; the server's indexed table
/// touches only the client's own directory per LIST. A LIST is correct
/// when it returns every binding the client has made so far, so a bind
/// that ended TIMEDOUT costs that one op, not every later LIST.
class NameClient final : public sodal::SodalClient {
 public:
  NameClient(const HarnessOptions& o, Tally* tally) : o_(o), tally_(tally) {}

  sim::Task on_task() override {
    const ServerSignature ns{0, sodal::kNameServerPattern};
    const ServerSignature self{my_mid(), kScalePattern};
    const std::string dir = "n" + std::to_string(my_mid());
    std::size_t bound = 0;
    for (int i = 0; i < o_.ops_per_client; ++i) {
      auto st = co_await sodal::ns_bind(
          *this, ns, dir + "/k" + std::to_string(i), self);
      if (st.ok()) {
        ++bound;
        tally_->op_done();
      }
      auto ls = co_await sodal::ns_list(*this, ns, dir);
      if (ls.ok() && ls->size() == bound) tally_->op_done();
    }
    tally_->finish();
    co_await park_forever();
  }

 private:
  HarnessOptions o_;
  Tally* tally_;
};

/// Contention: every client hammers the single slow server back-to-back —
/// no think time between blocking exchanges — so the server spends the
/// whole run BUSY-NACKing and goodput is set by how well the retry
/// discipline shares the one handler. Per-client tallies expose fairness
/// (max/min ops); a TIMEDOUT completion (retry budget exhausted) does not
/// count as an op — that is the graceful-degradation path.
class ContentionClient final : public sodal::SodalClient {
 public:
  ContentionClient(const HarnessOptions& o, Tally* tally, std::size_t slot)
      : o_(o), tally_(tally), slot_(slot) {}

  sim::Task on_task() override {
    ServerSignature server{0, kScalePattern};
    if (o_.pool_size > 0) {
      // Pool mode: one DISCOVER round seeds this kernel's member set,
      // then every exchange addresses the pool and the kernel routes it
      // to the least-shed member (NACK shed hints keep the scores live).
      // Stagger the boot-time broadcasts: a hundred-plus stations firing
      // DISCOVER in the same bus slot collide, and the blocking helper's
      // fixed 20 ms retry keeps the fleet synchronized forever.
      co_await delay(static_cast<sim::Duration>(slot_) * 150);
      co_await discover(kScalePattern);
      server = sodal::ServiceHandle::pool(kScalePattern).signature();
    }
    for (int i = 0; i < o_.ops_per_client; ++i) {
      Bytes in;
      auto c = co_await b_exchange(server, i, Bytes(o_.payload), &in,
                                   o_.payload);
      if (c.ok()) {
        tally_->op_done();
        ++tally_->per_client[slot_];
      }
    }
    tally_->finish();
    co_await park_forever();
  }

 private:
  HarnessOptions o_;
  Tally* tally_;
  std::size_t slot_;
};

std::unique_ptr<Client> make_scale_client(const HarnessOptions& o, int mid,
                                          Tally* tally) {
  const bool is_server = mid < o.servers;
  switch (o.workload) {
    case Workload::kContention:
      // The server dawdles before accepting, so demand from N-1
      // back-to-back clients always exceeds its service rate.
      if (is_server) {
        return std::make_unique<ScaleEchoServer>(/*dawdle=*/100);
      }
      return std::make_unique<ContentionClient>(
          o, tally, static_cast<std::size_t>(mid - o.servers));
    case Workload::kStarRpc:
      if (is_server) return std::make_unique<ScaleEchoServer>();
      return std::make_unique<StarClient>(o, tally);
    case Workload::kDiscoverStorm:
      if (is_server) return std::make_unique<ScaleEchoServer>();
      return std::make_unique<DiscoverClient>(o, tally);
    case Workload::kReplicatedStore:
      if (is_server) return std::make_unique<apps::StoreReplica>();
      return std::make_unique<StoreClient>(o, tally);
    case Workload::kNameStorm:
      if (is_server) {
        return std::make_unique<sodal::NameServer>();
      }
      return std::make_unique<NameClient>(o, tally);
  }
  return nullptr;
}

}  // namespace

const char* to_string(Workload w) {
  switch (w) {
    case Workload::kStarRpc: return "star_rpc";
    case Workload::kDiscoverStorm: return "discover_storm";
    case Workload::kReplicatedStore: return "replicated_store";
    case Workload::kNameStorm: return "name_storm";
    case Workload::kContention: return "contention";
  }
  return "unknown";
}

HarnessResult run_harness(const HarnessOptions& opts) {
  // Normalize the topology: at least one server, at least one client, and
  // the name storm has exactly one name server by construction.
  HarnessOptions o = opts;
  if (o.workload == Workload::kNameStorm) o.servers = 1;
  if (o.workload == Workload::kContention) {
    // Legacy single-server storm unless an anycast pool was asked for.
    o.servers = std::max(1, o.pool_size);
  } else {
    o.pool_size = 0;  // pools are a contention-workload concept
  }
  o.servers = std::clamp(o.servers, 1, std::max(1, o.nodes - 1));

  // Topology: one fast bus per segment; with several, node MID i lives on
  // segment i % segments and one hub gateway bridges them.
  const int segments = std::max(1, o.segments);
  inet::Internet::Options topts;
  topts.seed = o.seed;
  topts.segments = segments;
  topts.bus = net::BusConfig::fast();
  topts.gateway = inet::GatewayConfig::fast();
  inet::Internet topology(topts);
  auto& sim = topology.sim();

  // Partition the event queue before the first node schedules anything.
  sim.enable_partitions(chaos::partition_count(segments, o.nodes));

  chaos::InvariantSet invariants = chaos::InvariantSet::standard();
  std::uint64_t hash = chaos::kTraceHashSeed;
  sim.trace().enable_all();
  sim.trace().set_store(false);
  sim.trace().set_observer([&](const sim::TraceEvent& e) {
    hash = chaos::hash_event(hash, e);
    invariants.on_event(e);
  });

  const int clients = o.nodes - o.servers;
  Tally tally;
  tally.per_client.assign(static_cast<std::size_t>(clients), 0);
  for (int mid = 0; mid < o.nodes; ++mid) {
    NodeConfig cfg;
    cfg.timing = TimingModel::fast();
    // Default-off in NodeConfig only because turning it on there would
    // change every chaos scenario's pinned trace hash.
    cfg.nic_pattern_filter = true;
    cfg.timing.exponential_retransmit_backoff = o.retransmit_backoff;
    // Contention rows, pooled or not, run the whole overload stack,
    // load-adaptive watermarks included (doc/OVERLOAD.md §3.2). With the
    // fixed table a 64-node storm spends about a third of the server's
    // BUSY NACKs on requests that later exhaust their retry budget
    // (EXPERIMENTS.md). The other workloads keep the fixed watermarks.
    cfg.adaptive_admission = o.workload == Workload::kContention;
    Node& n = topology.add_node(mid % segments, std::move(cfg));
    n.install_client(make_scale_client(o, mid, &tally), n.mid());
  }
  // The hub bridge takes MID == o.nodes, the next off the shared counter.
  if (segments > 1) topology.add_gateway();

  if (o.loss > 0) {
    chaos::Scenario uniform;
    uniform.lose(o.loss, 0, std::numeric_limits<sim::Time>::max());
    for (int s = 0; s < segments; ++s) {
      topology.bus(s).set_faults(chaos::link_faults(uniform, s));
    }
  }

  const sim::Duration slice = 2 * sim::kMillisecond;

  // The lookahead and the sim.now() + slice deadlines below fix the
  // window boundaries, which are part of the epoch-2 hash contract.
  sim.set_lookahead(topology.lookahead());

  const auto wall_start = std::chrono::steady_clock::now();
  std::uint64_t executed = 0;
  while (tally.finished < clients && sim.now() < o.max_sim_time) {
    executed += sim.run_until(sim.now() + slice);
  }
  const auto wall_end = std::chrono::steady_clock::now();

  topology.check_clients();
  invariants.finish(sim.now());

  HarnessResult r;
  r.sim_elapsed = sim.now();
  r.wall_ms =
      std::chrono::duration<double, std::milli>(wall_end - wall_start).count();
  r.events_executed = executed;
  if (r.wall_ms > 0) {
    r.events_per_wall_s = static_cast<double>(executed) * 1e3 / r.wall_ms;
  }
  r.peak_rss_kb = read_peak_rss_kb();
  r.events_scheduled = sim.events_scheduled();
  r.events_cancelled = sim.events_cancelled();
  r.slab_bytes = sim.slab_bytes();
  for (int s = 0; s < segments; ++s) {
    r.frames_sent += topology.bus(s).frames_sent();
    r.frames_filtered += topology.bus(s).frames_filtered();
  }
  for (const auto& g : topology.gateways()) {
    r.frames_relayed += g->forwarded();
    r.relay_drops += g->ttl_drops() + g->overflow_drops();
  }
  const auto& hub = sim.metrics();
  r.requests_issued = hub.total(stats::Counter::kRequestsIssued);
  r.requests_completed = hub.total(stats::Counter::kRequestsCompleted);
  r.cpu_busy_micros = hub.total(stats::Counter::kCpuBusyMicros);
  r.ops_done = tally.ops_done;
  if (!tally.per_client.empty()) {
    const auto [lo, hi] =
        std::minmax_element(tally.per_client.begin(), tally.per_client.end());
    r.ops_min = *lo;
    r.ops_max = *hi;
  }
  if (sim.now() > 0) {
    r.goodput_ops_per_s = static_cast<double>(r.ops_done) * 1e6 /
                          static_cast<double>(sim.now());
  }
  r.requests_timedout = hub.total(stats::Counter::kBusyBudgetExhausted);
  r.shed_offers = hub.total(stats::Counter::kShedOffers);
  const std::uint64_t per_client =
      o.workload == Workload::kNameStorm
          ? 2 * static_cast<std::uint64_t>(o.ops_per_client)
          : static_cast<std::uint64_t>(o.ops_per_client);
  r.ops_expected = per_client * static_cast<std::uint64_t>(clients);
  const auto v = invariants.violations();
  r.violations = v.size();
  if (!v.empty()) r.first_violation = v.front().invariant + ": " +
                                      v.front().detail;
  r.trace_hash = hash;
  // The observer references locals of this frame; drop it before return.
  sim.trace().set_observer(nullptr);
  r.lookahead_violations = sim.lookahead_violations();
  return r;
}

}  // namespace soda::scale
