#include "chaos/scenario.h"

#include <cstdio>
#include <sstream>

#include "stats/json.h"

namespace soda::chaos {

const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kLoss: return "loss";
    case FaultKind::kCorrupt: return "corrupt";
    case FaultKind::kDuplicate: return "duplicate";
    case FaultKind::kDelay: return "delay";
    case FaultKind::kPartition: return "partition";
    case FaultKind::kCrash: return "crash";
    case FaultKind::kTimerSkew: return "timer_skew";
    case FaultKind::kGatewayCrash: return "gateway_crash";
    case FaultKind::kSegmentPartition: return "segment_partition";
  }
  return "unknown";
}

std::optional<FaultKind> fault_kind_from_string(std::string_view s) {
  constexpr auto kLast =
      static_cast<std::size_t>(FaultKind::kSegmentPartition);
  for (std::size_t i = 0; i <= kLast; ++i) {
    const auto k = static_cast<FaultKind>(i);
    if (s == to_string(k)) return k;
  }
  return std::nullopt;
}

// ---------------------------------------------------------------- builder

Scenario& Scenario::lose(double p, sim::Time at, sim::Time until, int node,
                         int peer, int segment) {
  Fault f;
  f.kind = FaultKind::kLoss;
  f.probability = p;
  f.at = at;
  f.until = until;
  f.node = node;
  f.peer = peer;
  f.segment = segment;
  faults.push_back(f);
  return *this;
}

Scenario& Scenario::corrupt(double p, sim::Time at, sim::Time until, int node,
                            int peer, int segment) {
  Fault f;
  f.kind = FaultKind::kCorrupt;
  f.probability = p;
  f.at = at;
  f.until = until;
  f.node = node;
  f.peer = peer;
  f.segment = segment;
  faults.push_back(f);
  return *this;
}

Scenario& Scenario::duplicate(double p, sim::Time at, sim::Time until,
                              int node, int peer, int segment) {
  Fault f;
  f.kind = FaultKind::kDuplicate;
  f.probability = p;
  f.at = at;
  f.until = until;
  f.node = node;
  f.peer = peer;
  f.segment = segment;
  faults.push_back(f);
  return *this;
}

Scenario& Scenario::delay_frames(sim::Duration max_extra, sim::Time at,
                                 sim::Time until, int node, int peer,
                                 int segment) {
  Fault f;
  f.kind = FaultKind::kDelay;
  f.delay = max_extra;
  f.at = at;
  f.until = until;
  f.node = node;
  f.peer = peer;
  f.segment = segment;
  faults.push_back(f);
  return *this;
}

Scenario& Scenario::partition(std::uint64_t group_mask, sim::Time at,
                              sim::Time until) {
  Fault f;
  f.kind = FaultKind::kPartition;
  f.group = group_mask;
  f.at = at;
  f.until = until;
  faults.push_back(f);
  return *this;
}

Scenario& Scenario::crash(int node, sim::Time at, sim::Duration reboot_after) {
  Fault f;
  f.kind = FaultKind::kCrash;
  f.node = node;
  f.at = at;
  f.reboot_after = reboot_after;
  faults.push_back(f);
  return *this;
}

Scenario& Scenario::skew_timers(int node, double factor) {
  Fault f;
  f.kind = FaultKind::kTimerSkew;
  f.node = node;
  f.factor = factor;
  faults.push_back(f);
  return *this;
}

Scenario& Scenario::fast_timing() {
  fast = true;
  return *this;
}

Scenario& Scenario::anycast_pool() {
  anycast = true;
  return *this;
}

Scenario& Scenario::segment_count(int n) {
  segments = n;
  return *this;
}

Scenario& Scenario::gateway_crash(int gateway, sim::Time at,
                                  sim::Duration reboot_after) {
  Fault f;
  f.kind = FaultKind::kGatewayCrash;
  f.node = gateway;
  f.at = at;
  f.reboot_after = reboot_after;
  faults.push_back(f);
  return *this;
}

Scenario& Scenario::segment_partition(int seg_a, int seg_b, sim::Time at,
                                      sim::Time until) {
  asymmetric_route(seg_a, seg_b, at, until);
  asymmetric_route(seg_b, seg_a, at, until);
  return *this;
}

Scenario& Scenario::asymmetric_route(int from_seg, int to_seg, sim::Time at,
                                     sim::Time until) {
  Fault f;
  f.kind = FaultKind::kSegmentPartition;
  f.node = from_seg;
  f.peer = to_seg;
  f.at = at;
  f.until = until;
  faults.push_back(f);
  return *this;
}

Scenario& Scenario::skew_segment(int segment, double factor) {
  Fault f;
  f.kind = FaultKind::kTimerSkew;
  f.node = -1;
  f.segment = segment;
  f.factor = factor;
  faults.push_back(f);
  return *this;
}

void apply_timer_skew(TimingModel& t, double factor) {
  auto scale = [factor](sim::Duration& d) {
    d = static_cast<sim::Duration>(static_cast<double>(d) * factor + 0.5);
  };
  scale(t.ack_delay_window);
  scale(t.retransmit_interval);
  scale(t.retransmit_jitter);
  scale(t.busy_retry_interval);
  scale(t.busy_retry_max);
  scale(t.probe_interval);
  scale(t.mpl);
  scale(t.discover_window);
}

// ------------------------------------------------------------------ JSONL

std::string to_jsonl(const Scenario& s) {
  std::string out;
  stats::JsonObject header;
  header.set("kind", "scenario")
      .set("name", s.name)
      .set("nodes", s.nodes)
      .set("servers", s.servers)
      .set("duration", static_cast<std::int64_t>(s.duration))
      .set("drain", static_cast<std::int64_t>(s.drain))
      .set("request_interval", static_cast<std::int64_t>(s.request_interval))
      .set("payload", s.payload)
      .set("accept_delay", static_cast<std::int64_t>(s.accept_delay));
  if (s.fast) header.set("fast", 1);
  if (s.anycast) header.set("anycast", 1);
  if (s.segments != 1) header.set("segments", s.segments);
  out += header.str();
  out += '\n';
  for (const Fault& f : s.faults) {
    stats::JsonObject o;
    o.set("kind", "fault").set("fault", to_string(f.kind));
    if (f.at != 0) o.set("at", static_cast<std::int64_t>(f.at));
    if (f.until != 0) o.set("until", static_cast<std::int64_t>(f.until));
    if (f.node != -1) o.set("node", f.node);
    if (f.peer != -1) o.set("peer", f.peer);
    if (f.probability != 1.0) o.set("p", f.probability);
    if (f.delay != 0) o.set("delay", static_cast<std::int64_t>(f.delay));
    if (f.factor != 1.0) o.set("factor", f.factor);
    if (f.group != 0) o.set("group", static_cast<std::uint64_t>(f.group));
    if (f.reboot_after != 0)
      o.set("reboot_after", static_cast<std::int64_t>(f.reboot_after));
    if (f.segment != -1) o.set("segment", f.segment);
    out += o.str();
    out += '\n';
  }
  return out;
}

namespace {

bool read_i64(const std::map<std::string, std::string>& fields,
              const char* key, std::int64_t& out) {
  auto it = fields.find(key);
  if (it == fields.end()) return true;
  try {
    out = std::stoll(it->second);
  } catch (...) {
    return false;
  }
  return true;
}

bool read_int(const std::map<std::string, std::string>& fields,
              const char* key, int& out) {
  std::int64_t v = out;
  if (!read_i64(fields, key, v)) return false;
  out = static_cast<int>(v);
  return true;
}

bool read_u64(const std::map<std::string, std::string>& fields,
              const char* key, std::uint64_t& out) {
  auto it = fields.find(key);
  if (it == fields.end()) return true;
  try {
    out = std::stoull(it->second);
  } catch (...) {
    return false;
  }
  return true;
}

bool read_double(const std::map<std::string, std::string>& fields,
                 const char* key, double& out) {
  auto it = fields.find(key);
  if (it == fields.end()) return true;
  try {
    out = std::stod(it->second);
  } catch (...) {
    return false;
  }
  return true;
}

bool read_u32(const std::map<std::string, std::string>& fields,
              const char* key, std::uint32_t& out) {
  std::int64_t v = out;
  if (!read_i64(fields, key, v) || v < 0) return false;
  out = static_cast<std::uint32_t>(v);
  return true;
}

}  // namespace

std::optional<Scenario> scenario_from_jsonl(std::string_view text) {
  Scenario s;
  bool saw_header = false;
  std::istringstream in{std::string(text)};
  std::string line;
  while (std::getline(in, line)) {
    // Tolerate comments and blank lines so checked-in scenario files can
    // carry commentary.
    std::size_t start = line.find_first_not_of(" \t");
    if (start == std::string::npos || line[start] == '#') continue;
    auto fields = stats::parse_json_line(line);
    if (!fields) return std::nullopt;
    auto kind = fields->find("kind");
    if (kind == fields->end()) return std::nullopt;

    if (kind->second == "scenario") {
      if (saw_header) return std::nullopt;  // one header only
      saw_header = true;
      if (auto it = fields->find("name"); it != fields->end())
        s.name = it->second;
      if (!read_int(*fields, "nodes", s.nodes) ||
          !read_int(*fields, "servers", s.servers) ||
          !read_i64(*fields, "duration", s.duration) ||
          !read_i64(*fields, "drain", s.drain) ||
          !read_i64(*fields, "request_interval", s.request_interval) ||
          !read_u32(*fields, "payload", s.payload) ||
          !read_i64(*fields, "accept_delay", s.accept_delay)) {
        return std::nullopt;
      }
      int fast_flag = 0;
      if (!read_int(*fields, "fast", fast_flag)) return std::nullopt;
      s.fast = fast_flag != 0;
      int anycast_flag = 0;
      if (!read_int(*fields, "anycast", anycast_flag)) return std::nullopt;
      s.anycast = anycast_flag != 0;
      if (!read_int(*fields, "segments", s.segments)) return std::nullopt;
      continue;
    }

    if (kind->second == "fault") {
      auto fk = fields->find("fault");
      if (fk == fields->end()) return std::nullopt;
      auto parsed = fault_kind_from_string(fk->second);
      if (!parsed) return std::nullopt;
      Fault f;
      f.kind = *parsed;
      if (!read_i64(*fields, "at", f.at) ||
          !read_i64(*fields, "until", f.until) ||
          !read_int(*fields, "node", f.node) ||
          !read_int(*fields, "peer", f.peer) ||
          !read_double(*fields, "p", f.probability) ||
          !read_i64(*fields, "delay", f.delay) ||
          !read_double(*fields, "factor", f.factor) ||
          !read_u64(*fields, "group", f.group) ||
          !read_i64(*fields, "reboot_after", f.reboot_after) ||
          !read_int(*fields, "segment", f.segment)) {
        return std::nullopt;
      }
      s.faults.push_back(f);
      continue;
    }

    return std::nullopt;  // unknown row kind
  }
  if (!saw_header) return std::nullopt;
  if (s.nodes < 1 || s.servers < 0 || s.servers > s.nodes) return std::nullopt;
  if (s.segments < 1) return std::nullopt;
  return s;
}

// --------------------------------------------------------------- builtins

std::optional<Scenario> builtin_scenario(std::string_view name) {
  using sim::kMillisecond;
  using sim::kSecond;

  if (name == "regression") {
    // The kitchen sink the CI sweep runs: background loss, corruption,
    // duplication and jitter for the whole load phase; the server crashes
    // and reboots mid-run; a client crashes and reboots; a partition
    // isolates the server for two seconds; one node's timers run 25% slow.
    Scenario s;
    s.name = "regression";
    s.nodes = 5;
    s.servers = 1;
    s.duration = 20 * kSecond;
    s.drain = 10 * kSecond;
    s.request_interval = 60 * kMillisecond;
    s.payload = 96;
    s.accept_delay = 2 * kMillisecond;  // keep requests held across faults
    s.lose(0.10)
        .corrupt(0.05)
        .duplicate(0.05)
        .delay_frames(3 * kMillisecond)
        .crash(/*node=*/0, /*at=*/5 * kSecond, /*reboot_after=*/2 * kSecond)
        .crash(/*node=*/3, /*at=*/9 * kSecond, /*reboot_after=*/1500 *
                                                   kMillisecond)
        .partition(/*group=*/0b00011, /*at=*/12 * kSecond,
                   /*until=*/14 * kSecond)
        .skew_timers(/*node=*/2, /*factor=*/1.25);
    return s;
  }

  if (name == "smoke") {
    // Small and fast: what tests/test_chaos.cc sweeps across ~50 seeds.
    Scenario s;
    s.name = "smoke";
    s.nodes = 3;
    s.servers = 1;
    s.duration = 3 * kSecond;
    s.drain = 3 * kSecond;
    s.request_interval = 80 * kMillisecond;
    s.payload = 32;
    s.accept_delay = 1 * kMillisecond;
    s.lose(0.10)
        .duplicate(0.05)
        .crash(/*node=*/0, /*at=*/1 * kSecond, /*reboot_after=*/800 *
                                                   kMillisecond)
        .partition(/*group=*/0b001, /*at=*/2 * kSecond,
                   /*until=*/2500 * kMillisecond);
    return s;
  }

  if (name == "loss_storm") {
    Scenario s;
    s.name = "loss_storm";
    s.nodes = 4;
    s.servers = 1;
    s.duration = 10 * kSecond;
    s.drain = 10 * kSecond;
    s.request_interval = 80 * kMillisecond;
    s.payload = 64;
    s.lose(0.40).corrupt(0.10);
    return s;
  }

  if (name == "asymmetric_partition") {
    // One-way blackouts: for a window only one direction of a link dies,
    // so requests arrive but every acknowledgement (or vice versa)
    // vanishes — the hardest case for the retransmission budget and the
    // per-direction Delta-t aging rule. Plus per-link corruption, which
    // exercises the corrupt filter's node/peer restriction.
    Scenario s;
    s.name = "asymmetric_partition";
    s.nodes = 5;
    s.servers = 1;
    s.duration = 15 * kSecond;
    s.drain = 10 * kSecond;
    s.request_interval = 60 * kMillisecond;
    s.payload = 64;
    s.accept_delay = 2 * kMillisecond;
    s.lose(0.05)
        .lose(1.0, /*at=*/3 * kSecond, /*until=*/6 * kSecond, /*node=*/3,
              /*peer=*/0)  // node 3's requests never reach the server
        .lose(1.0, /*at=*/8 * kSecond, /*until=*/11 * kSecond, /*node=*/0,
              /*peer=*/2)  // the server's replies to node 2 all vanish
        .corrupt(0.30, /*at=*/12 * kSecond, /*until=*/14 * kSecond,
                 /*node=*/0, /*peer=*/4);  // per-link CRC damage
    return s;
  }

  if (name == "crash_during_boot") {
    // The second crash lands moments after the reboot, while the node is
    // still inside its Delta-t quarantine / boot handler — the window
    // where half-initialized state is most likely to leak a stale TID.
    Scenario s;
    s.name = "crash_during_boot";
    s.nodes = 4;
    s.servers = 1;
    s.duration = 12 * kSecond;
    s.drain = 10 * kSecond;
    s.request_interval = 70 * kMillisecond;
    s.payload = 64;
    s.accept_delay = 1 * kMillisecond;
    s.lose(0.08)
        .crash(/*node=*/0, /*at=*/4 * kSecond,
               /*reboot_after=*/1 * kSecond)  // reboot at 5 s
        .crash(/*node=*/0, /*at=*/5100 * kMillisecond,
               /*reboot_after=*/800 * kMillisecond)  // 100 ms into the boot
        .crash(/*node=*/2, /*at=*/7 * kSecond,
               /*reboot_after=*/600 * kMillisecond)
        .crash(/*node=*/2, /*at=*/7700 * kMillisecond,
               /*reboot_after=*/900 * kMillisecond);
    return s;
  }

  if (name == "skew_extreme") {
    // Delta-t clock-rate skew at the very edge of the protocol's design
    // envelope. At-most-once delivery is only guaranteed while a
    // requester's retransmit span (scaled by its clock rate) stays inside
    // the receiver's record lifetime (scaled by *its* clock rate):
    // record_lifetime / retransmit_span = 237k/192k ~= 1.23 with the
    // default calibration, so communicating peers may disagree by at most
    // ~1.23x. Sweeping this scenario with 3x/0.33x factors reproducibly
    // yields duplicate deliveries (e.g. seed 27) — the protocol failing
    // exactly as Delta-t's bounded-drift assumption predicts, not an
    // implementation bug. The builtin therefore rides the documented
    // edge: the fast and slow clients each sit ~1.2x away from the
    // unskewed server, under background loss and duplication.
    Scenario s;
    s.name = "skew_extreme";
    s.nodes = 5;
    s.servers = 1;
    s.duration = 15 * kSecond;
    s.drain = 18 * kSecond;  // the slow node needs extra settle time
    s.request_interval = 70 * kMillisecond;
    s.payload = 64;
    s.accept_delay = 2 * kMillisecond;
    s.lose(0.10)
        .duplicate(0.05)
        .skew_timers(/*node=*/1, /*factor=*/1.2)
        .skew_timers(/*node=*/3, /*factor=*/0.82);
    return s;
  }

  if (name == "overload") {
    // The request storm: 24 clients hammer a single server back-to-back
    // (request_interval well below the service time), so the server spends
    // the whole run BUSY-NACKing and the admission watermarks trip. A
    // partition cuts half the clients off mid-storm and releases them,
    // which synchronizes their retries — exactly the thundering herd the
    // adaptive backoff's decorrelated jitter has to break up. Background
    // loss and duplication keep the retransmission machinery honest while
    // the retry budget is draining. Swept across 200 seeds in CI.
    Scenario s;
    s.name = "overload";
    s.nodes = 25;
    s.servers = 1;
    s.duration = 1 * kSecond;
    s.drain = 800 * kMillisecond;
    s.request_interval = 500;  // 500 us: far below the 1 ms service time
    s.payload = 64;
    s.accept_delay = 1 * kMillisecond;  // slow handler -> standing backlog
    s.fast_timing()
        .lose(0.03)
        .duplicate(0.02)
        .partition(/*group=*/0x1FFF, /*at=*/400 * kMillisecond,
                   /*until=*/550 * kMillisecond);
    return s;
  }

  if (name == "pool_failover") {
    // Anycast pool failover: 12 clients address a 4-server pool
    // ({kAnycastMid, kEchoPattern}) instead of picking MIDs. Two members
    // crash mid-storm — one comes back, one stays down — and a brief
    // partition hides a third. A client's kernel must route around the
    // casualties: a CRASHED completion drops the member from the pool,
    // shed hints steer load toward the survivors, and the run still
    // quiesces with zero invariant violations. Background loss keeps the
    // retransmission machinery honest while members disappear.
    Scenario s;
    s.name = "pool_failover";
    s.nodes = 16;
    s.servers = 4;
    s.duration = 3 * kSecond;
    s.drain = 2 * kSecond;
    s.request_interval = 5 * kMillisecond;
    s.payload = 64;
    s.accept_delay = 200;  // 200 us dawdle -> standing contention
    s.fast_timing();
    s.anycast_pool();
    s.lose(0.05)
        .crash(/*node=*/1, /*at=*/800 * kMillisecond,
               /*reboot_after=*/600 * kMillisecond)
        .crash(/*node=*/3, /*at=*/1500 * kMillisecond)  // stays down
        .partition(/*group=*/0b0100, /*at=*/2200 * kMillisecond,
                   /*until=*/2600 * kMillisecond);  // node 2 cut off
    return s;
  }

  if (name == "scale_32") {
    // The scaling regression gate: 32 stations under the fast timing
    // preset, with loss, duplication, a server crash and a brief
    // partition. tests/test_scale.cc and the CI `scale` job sweep this
    // across 200 seeds.
    Scenario s;
    s.name = "scale_32";
    s.nodes = 32;
    s.servers = 4;
    s.duration = 1 * kSecond;
    s.drain = 500 * kMillisecond;
    s.request_interval = 5 * kMillisecond;
    s.payload = 64;
    s.accept_delay = 200;  // 200 us dawdle
    s.fast_timing()
        .lose(0.05)
        .duplicate(0.02)
        .crash(/*node=*/1, /*at=*/300 * kMillisecond,
               /*reboot_after=*/200 * kMillisecond)
        .partition(/*group=*/0xFF, /*at=*/600 * kMillisecond,
                   /*until=*/700 * kMillisecond);
    return s;
  }

  if (name == "fleet_smoke") {
    // The real-process harness scenario (doc/FLEET.md): small enough to
    // run as 8 OS processes in CI, wide enough to exercise SIGKILL +
    // §3.5 network-boot reboot of both a server and a client plus a
    // background loss floor. soda_fleet runs it over real UDP sockets;
    // soda_chaos runs the identical schedule in-sim as the validated
    // twin. Mirrored in scenarios/fleet_smoke.json.
    Scenario s;
    s.name = "fleet_smoke";
    s.nodes = 8;
    s.servers = 2;
    s.duration = 6 * kSecond;
    s.drain = 4 * kSecond;
    s.request_interval = 150 * kMillisecond;
    s.payload = 64;
    s.accept_delay = 2 * kMillisecond;
    // Deliberately NOT fast_timing(): the real medium must stay inside the
    // protocol's timing envelope. Calibrated MPL is 20 ms of simulated
    // time = 2 ms of wall time at the default speedup 10, which the
    // worker's pump cadence honors; fast() would shrink that to 200 us
    // and real socket latency would violate Delta-t at-most-once.
    s.lose(0.02)
        .crash(/*node=*/0, /*at=*/1500 * kMillisecond,
               /*reboot_after=*/2 * kSecond)  // a server dies and reboots
        .crash(/*node=*/5, /*at=*/3 * kSecond,
               /*reboot_after=*/2 * kSecond);  // ... and so does a client
    return s;
  }

  // ---- multi-segment internetwork builtins (doc/INTERNET.md). All use
  // 2 segments bridged by one hub gateway; node MID i lives on segment
  // i % 2, so server 0 / the even clients share segment 0 and server 1 /
  // the odd clients share segment 1 — half of all request traffic crosses
  // the relay. All are swept 200 seeds in tests/test_inet.cc and CI.

  if (name == "inet_smoke") {
    // Cross-segment baseline: background loss and duplication on both
    // segments while every other request crosses the gateway. Exercises
    // route learning, DISCOVER flooding, and retransmission across the
    // store-and-forward hop — with zero injected topology faults, every
    // op must terminate COMPLETED.
    Scenario s;
    s.name = "inet_smoke";
    s.nodes = 10;
    s.servers = 2;
    s.segments = 2;
    s.duration = 2 * kSecond;
    s.drain = 1500 * kMillisecond;
    s.request_interval = 10 * kMillisecond;
    s.payload = 64;
    s.accept_delay = 200;  // 200 us dawdle -> requests pending across hops
    s.fast_timing().lose(0.05).duplicate(0.02);
    return s;
  }

  if (name == "inet_partition") {
    // Inter-segment partition: the gateway stops relaying in both
    // directions for 400 ms mid-storm. Cross-segment requests in flight
    // hit the crash detector (an unreachable peer is indistinguishable
    // from a dead one, §3.6) and must terminate CRASHED exactly once;
    // same-segment traffic must not notice. After the window heals, the
    // relay must carry new requests again.
    Scenario s;
    s.name = "inet_partition";
    s.nodes = 10;
    s.servers = 2;
    s.segments = 2;
    s.duration = 2 * kSecond;
    s.drain = 2 * kSecond;
    s.request_interval = 10 * kMillisecond;
    s.payload = 64;
    s.accept_delay = 200;
    s.fast_timing().lose(0.03);
    s.segment_partition(0, 1, /*at=*/800 * kMillisecond,
                        /*until=*/1200 * kMillisecond);
    return s;
  }

  if (name == "gateway_flap") {
    // The hub gateway hard-crashes mid-flight — dropping its egress
    // queues and every learned route — reboots blank, and crashes again
    // later. Each outage is a total inter-segment partition; each reboot
    // must re-learn routes from live traffic alone.
    Scenario s;
    s.name = "gateway_flap";
    s.nodes = 10;
    s.servers = 2;
    s.segments = 2;
    s.duration = 2500 * kMillisecond;
    s.drain = 2 * kSecond;
    s.request_interval = 10 * kMillisecond;
    s.payload = 64;
    s.accept_delay = 200;
    s.fast_timing().lose(0.03);
    s.gateway_crash(/*gateway=*/0, /*at=*/700 * kMillisecond,
                    /*reboot_after=*/400 * kMillisecond);
    s.gateway_crash(/*gateway=*/0, /*at=*/1800 * kMillisecond,
                    /*reboot_after=*/300 * kMillisecond);
    return s;
  }

  if (name == "inet_asymmetric") {
    // One-way relay blackouts: first segment 0 -> 1 dies (requests from
    // even clients to server 1 still arrive, every reply vanishes), then
    // 1 -> 0. The hardest case for the retransmission budget across hops,
    // mirroring the single-bus asymmetric_partition builtin.
    Scenario s;
    s.name = "inet_asymmetric";
    s.nodes = 10;
    s.servers = 2;
    s.segments = 2;
    s.duration = 2 * kSecond;
    s.drain = 2 * kSecond;
    s.request_interval = 10 * kMillisecond;
    s.payload = 64;
    s.accept_delay = 200;
    s.fast_timing().lose(0.03);
    s.asymmetric_route(0, 1, /*at=*/600 * kMillisecond,
                       /*until=*/1 * kSecond);
    s.asymmetric_route(1, 0, /*at=*/1400 * kMillisecond,
                       /*until=*/1800 * kMillisecond);
    return s;
  }

  if (name == "inet_skew") {
    // Cross-segment clock drift: every node on segment 1 runs 15% fast
    // relative to segment 0 (two machine rooms, two oscillators), inside
    // the ~1.23x at-most-once envelope, under background loss and
    // duplication — while the relay adds real latency between the drifted
    // clocks. Delta-t must still deliver at most once.
    Scenario s;
    s.name = "inet_skew";
    s.nodes = 10;
    s.servers = 2;
    s.segments = 2;
    s.duration = 2 * kSecond;
    s.drain = 2 * kSecond;
    s.request_interval = 10 * kMillisecond;
    s.payload = 64;
    s.accept_delay = 200;
    s.fast_timing().lose(0.05).duplicate(0.02);
    s.skew_segment(/*segment=*/1, /*factor=*/1.15);
    return s;
  }

  return std::nullopt;
}

std::vector<std::string> builtin_scenario_names() {
  return {"regression",      "smoke",
          "loss_storm",      "asymmetric_partition",
          "crash_during_boot", "skew_extreme",
          "overload",        "scale_32",
          "pool_failover",   "fleet_smoke",
          "inet_smoke",
          "inet_partition",  "gateway_flap",
          "inet_asymmetric", "inet_skew"};
}

}  // namespace soda::chaos
