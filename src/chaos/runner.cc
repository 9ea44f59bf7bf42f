#include "chaos/runner.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>

#include "chaos/workload.h"
#include "inet/internet.h"
#include "stats/metrics.h"

namespace soda::chaos {

namespace {

/// A fault window resolved against the scenario (until=0 already expanded).
struct Window {
  sim::Time at = 0;
  sim::Time until = 0;
  int node = -1;
  int peer = -1;
  double probability = 1.0;
  sim::Duration delay = 0;
  std::uint64_t group = 0;

  bool active(sim::Time now) const { return now >= at && now < until; }
  bool matches_link(sim::Time now, Mid src, Mid dst) const {
    return active(now) && (node < 0 || node == src) &&
           (peer < 0 || peer == dst);
  }
};

/// One segment's link-fault windows, by kind, as a bus fault hook. Every
/// window honours its node/peer restriction and draws only while it
/// matches the delivery, in a fixed order: partitions (no draw), loss
/// (stopping at the first drop), corruption (stopping at the first hit),
/// delay, duplication (stopping at the first hit), then the duplicate's
/// lag. The lag is always 0 — no window jitters — but its draw is kept,
/// as the random medium keeps it.
struct LinkFaults {
  std::vector<Window> partitions, losses, corrupts, delays, dups;

  static bool hit(const std::vector<Window>& windows, const net::Frame& f,
                  Mid dst, sim::Time now, sim::Rng& rng) {
    for (const Window& w : windows) {
      if (w.matches_link(now, f.src, dst) && rng.chance(w.probability)) {
        return true;
      }
    }
    return false;
  }

  net::Fate operator()(const net::Frame& f, Mid dst, sim::Time now,
                       sim::Rng& rng) const {
    net::Fate fate;
    for (const Window& w : partitions) {
      if (w.active(now) && (((w.group >> static_cast<unsigned>(f.src)) ^
                             (w.group >> static_cast<unsigned>(dst))) &
                            1)) {
        fate.drop = true;
        return fate;
      }
    }
    fate.drop = hit(losses, f, dst, now, rng);
    if (fate.drop) return fate;
    fate.damage = hit(corrupts, f, dst, now, rng);
    for (const Window& w : delays) {
      if (w.matches_link(now, f.src, dst) && w.delay > 0) {
        fate.delay += static_cast<sim::Duration>(rng.next_range(0, w.delay));
      }
    }
    fate.duplicate = hit(dups, f, dst, now, rng);
    if (fate.duplicate) fate.dup_lag = rng.next_range(0, 0);
    return fate;
  }
};

/// Schedule the crash / reboot events. A reboot reinstalls the node's
/// workload client; the kernel keeps its monotone TID floor and its
/// Delta-t quarantine across the reboot (§5.4), so rebooting before the
/// quarantine elapses is protocol-safe — the transport just stays silent
/// until it expires.
void schedule_crashes(Network& net, const Scenario& s) {
  auto& sim = net.sim();
  for (const Fault& f : s.faults) {
    if (f.kind != FaultKind::kCrash) continue;
    if (f.node < 0 || f.node >= s.nodes) continue;
    const Mid mid = static_cast<Mid>(f.node);
    // Pin the injected events to the victim's partition wheel: a crash is
    // external intervention, not protocol traffic, so it must not look
    // like a cross-partition schedule inside the lookahead window.
    sim::ScopedPartition guard(sim, net.node(mid).partition());
    sim.at(f.at, [&net, mid] { net.node(mid).crash(); });
    if (f.reboot_after > 0) {
      sim.at(f.at + f.reboot_after, [&net, &s, mid] {
        net.node(mid).install_client(make_workload_client(s, mid), mid);
      });
    }
  }
}

/// Schedule kGatewayCrash events (f.node indexes into gateways() in
/// creation order) and install the relay-drop windows that implement
/// kSegmentPartition / asymmetric routes. The ForwardFilter survives a
/// gateway crash/reboot — it models the inter-segment links, not the
/// bridge hardware — so a partition that spans a gateway flap stays cut.
void install_inet_faults(inet::Internet& net, const Scenario& s) {
  auto& sim = net.sim();
  for (const Fault& f : s.faults) {
    if (f.kind != FaultKind::kGatewayCrash) continue;
    if (f.node < 0 ||
        static_cast<std::size_t>(f.node) >= net.gateways().size()) {
      continue;
    }
    inet::Gateway& g = *net.gateways()[static_cast<std::size_t>(f.node)];
    sim.at(f.at, [&g] { g.crash(); });
    if (f.reboot_after > 0) {
      sim.at(f.at + f.reboot_after, [&g] { g.reboot(); });
    }
  }

  struct Cut {
    sim::Time at = 0;
    sim::Time until = 0;
    int from = -1;
    int to = -1;
  };
  std::vector<Cut> cuts;
  for (const Fault& f : s.faults) {
    if (f.kind != FaultKind::kSegmentPartition) continue;
    cuts.push_back(Cut{f.at, s.window_end(f), f.node, f.peer});
  }
  if (cuts.empty()) return;
  for (auto& g : net.gateways()) {
    g->set_forward_filter(
        [&sim, cuts](const net::Frame&, int from, int to) {
          const sim::Time now = sim.now();
          for (const Cut& c : cuts) {
            if (now >= c.at && now < c.until && c.from == from &&
                c.to == to) {
              return true;
            }
          }
          return false;
        });
  }
}

/// run_scenario that converts an escaped exception (a client program
/// throwing, a simulation runaway) into a reported violation, so a worker
/// thread never terminates the sweep.
RunResult run_guarded(const Scenario& scenario, std::uint64_t seed,
                      const InvariantFactory& extra,
                      const RunOptions& options = {}) {
  try {
    return run_scenario(scenario, seed, extra, options);
  } catch (const std::exception& ex) {
    RunResult r;
    r.seed = seed;
    r.violations.push_back(Violation{"exception", 0, ex.what()});
    return r;
  }
}

}  // namespace

net::FaultHook link_faults(const Scenario& s, int segment) {
  LinkFaults faults;
  for (const Fault& f : s.faults) {
    if (f.segment >= 0 && f.segment != segment) continue;
    const Window w{f.at,   s.window_end(f), f.node, f.peer, f.probability,
                   f.delay, f.group};
    switch (f.kind) {
      case FaultKind::kLoss: faults.losses.push_back(w); break;
      case FaultKind::kPartition: faults.partitions.push_back(w); break;
      case FaultKind::kCorrupt: faults.corrupts.push_back(w); break;
      case FaultKind::kDelay: faults.delays.push_back(w); break;
      case FaultKind::kDuplicate: faults.dups.push_back(w); break;
      default: break;
    }
  }
  if (faults.partitions.empty() && faults.losses.empty() &&
      faults.corrupts.empty() && faults.delays.empty() &&
      faults.dups.empty()) {
    return nullptr;
  }
  return faults;
}

RunResult run_scenario(const Scenario& scenario, std::uint64_t seed,
                       const InvariantFactory& extra,
                       const RunOptions& options) {
  // Topology: one broadcast bus per segment — the paper's single bus when
  // the scenario declares one — joined by one hub gateway when there are
  // several. Node MID i lives on segment i % segments, so servers and
  // load clients spread across segments and a share of every run's
  // traffic crosses the store-and-forward relay.
  const int segments = std::max(1, scenario.segments);
  inet::Internet::Options topts;
  topts.seed = seed;
  topts.segments = segments;
  if (scenario.fast) {
    topts.bus = net::BusConfig::fast();
    topts.gateway = inet::GatewayConfig::fast();
  }
  inet::Internet topology(topts);
  auto& sim = topology.sim();
  sim.enable_partitions(partition_count(segments, scenario.nodes));
  sim.trace().enable_all();
  sim.trace().set_store(options.keep_events);

  InvariantSet invariants = InvariantSet::standard();
  if (extra) {
    for (auto& inv : extra()) invariants.add(std::move(inv));
  }

  RunResult result;
  result.seed = seed;
  std::uint64_t hash = kTraceHashSeed;
  auto observe = [&](const sim::TraceEvent& e) {
    hash = hash_event(hash, e);
    invariants.on_event(e);
    ++result.stats.events;
    using sim::TraceCategory;
    switch (e.category) {
      case TraceCategory::kRequestIssued:
        ++result.stats.requests_issued;
        break;
      case TraceCategory::kRequestDelivered:
        ++result.stats.deliveries;
        break;
      case TraceCategory::kRequestCompleted:
        ++result.stats.requests_completed;
        if (e.status == sim::TraceStatus::kCompleted) {
          ++result.stats.ok_completions;
        } else if (e.status == sim::TraceStatus::kCrashed) {
          ++result.stats.crashed_completions;
        } else if (e.status == sim::TraceStatus::kTimedOut) {
          ++result.stats.timedout_completions;
        }
        break;
      default:
        break;
    }
  };
  sim.trace().set_observer(observe);

  std::vector<TimingModel> timings;
  timings.reserve(static_cast<std::size_t>(scenario.nodes));
  for (int mid = 0; mid < scenario.nodes; ++mid) {
    NodeConfig cfg;
    if (scenario.fast) cfg.timing = TimingModel::fast();
    const int seg = mid % segments;
    for (const Fault& f : scenario.faults) {
      if (f.kind != FaultKind::kTimerSkew) continue;
      const bool direct = f.node == mid;
      const bool whole_segment =
          f.node < 0 && f.segment >= 0 && f.segment == seg;
      if (direct || whole_segment) apply_timer_skew(cfg.timing, f.factor);
    }
    timings.push_back(cfg.timing);
    Node& n = topology.add_node(seg, std::move(cfg));
    n.install_client(make_workload_client(scenario, static_cast<Mid>(mid)),
                     n.mid());
  }
  // The hub bridge takes MID == scenario.nodes (next off the shared
  // counter) — scenario faults never address it as a node.
  if (segments > 1) topology.add_gateway();

  // Construction-time Delta-t validation: the workload only exchanges
  // sequenced traffic between clients and servers, so check each such pair
  // (both directions) against the bounded-drift envelope. Checking all
  // pairs would falsely flag configurations like skew_extreme, where two
  // skewed *clients* never talk to each other. Warn-and-trace rather than
  // reject: riding outside the envelope is a legitimate experiment (it is
  // how the seed-27 duplicate was found), it just must not be a surprise.
  for (int c = scenario.servers; c < scenario.nodes; ++c) {
    for (int sv = 0; sv < scenario.servers; ++sv) {
      const int pairs[2][2] = {{c, sv}, {sv, c}};
      for (const auto& p : pairs) {
        const TimingModel& req = timings[static_cast<std::size_t>(p[0])];
        const TimingModel& rcv = timings[static_cast<std::size_t>(p[1])];
        if (TimingModel::at_most_once_safe(req, rcv)) continue;
        result.warnings.push_back(
            "timer skew outside the at-most-once envelope: node " +
            std::to_string(p[0]) + "'s retransmit span (" +
            std::to_string(req.retransmit_span()) + " us) exceeds node " +
            std::to_string(p[1]) + "'s record lifetime (" +
            std::to_string(rcv.record_lifetime()) +
            " us); duplicate delivery is possible (doc/OVERLOAD.md)");
        sim.trace().record(sim.now(), sim::TraceCategory::kOther,
                           static_cast<Mid>(p[0]),
                           sim::TracePayload{}
                               .with_peer(static_cast<Mid>(p[1]))
                               .with_status(sim::TraceStatus::kSkewWarning));
      }
    }
  }

  for (int s = 0; s < segments; ++s) {
    topology.bus(s).set_faults(link_faults(scenario, s));
  }
  schedule_crashes(topology, scenario);
  install_inet_faults(topology, scenario);
  // The lookahead fixes the window boundaries, and the boundaries are
  // part of the epoch-2 contract.
  sim.set_lookahead(topology.lookahead());
  topology.run_for(scenario.end_time());
  topology.check_clients();
  invariants.finish(sim.now());

  result.trace_hash = hash;
  result.lookahead_violations = sim.lookahead_violations();
  result.violations = invariants.violations();
  for (int s = 0; s < segments; ++s) {
    net::Bus& b = topology.bus(s);
    result.stats.frames_sent += b.frames_sent();
    result.stats.frames_lost += b.frames_lost();
    result.stats.frames_duplicated += b.frames_duplicated();
  }
  result.stats.duplicates_suppressed =
      sim.metrics().total(stats::Counter::kDuplicatesSuppressed);
  if (options.keep_events) result.events = sim.trace().events();
  // The observer references locals of this frame; drop it before they die.
  sim.trace().set_observer(nullptr);
  return result;
}

SweepResult sweep_scenario(const Scenario& scenario,
                           const SweepOptions& options,
                           const InvariantFactory& extra) {
  SweepResult out;
  const int seeds = std::max(0, options.seeds);
  if (seeds == 0) return out;
  int jobs = options.jobs > 0
                 ? options.jobs
                 : static_cast<int>(std::thread::hardware_concurrency());
  jobs = std::clamp(jobs, 1, seeds);

  std::atomic<int> next{0};
  std::atomic<int> failure_count{0};
  std::mutex mu;
  auto worker = [&] {
    for (;;) {
      const int i = next.fetch_add(1);
      if (i >= seeds) return;
      if (failure_count.load() >= options.max_failures) return;
      const std::uint64_t seed =
          options.first_seed + static_cast<std::uint64_t>(i);
      RunResult r = run_guarded(scenario, seed, extra, options.run);
      std::lock_guard<std::mutex> lock(mu);
      ++out.ran;
      if (!r.ok()) {
        ++failure_count;
        if (options.on_failure) options.on_failure(r);
        out.failures.push_back(std::move(r));
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(jobs));
  for (int t = 0; t < jobs; ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();

  std::sort(out.failures.begin(), out.failures.end(),
            [](const RunResult& a, const RunResult& b) {
              return a.seed < b.seed;
            });
  return out;
}

Scenario shrink_failure(const Scenario& scenario, std::uint64_t seed,
                        const InvariantFactory& extra, int* runs_used) {
  int runs = 0;
  auto violated_names = [&](const Scenario& s) {
    ++runs;
    std::set<std::string> names;
    for (const Violation& v : run_guarded(s, seed, extra).violations) {
      names.insert(v.invariant);
    }
    return names;
  };

  const std::set<std::string> original = violated_names(scenario);
  Scenario best = scenario;
  if (original.empty()) {
    if (runs_used) *runs_used = runs;
    return best;  // (scenario, seed) doesn't fail — nothing to shrink
  }

  // A candidate counts as "still failing" only if it reproduces one of the
  // *original* violations; trading the bug under investigation for a
  // different one isn't a reduction.
  auto still_fails = [&](const Scenario& s) {
    for (const std::string& n : violated_names(s)) {
      if (original.count(n)) return true;
    }
    return false;
  };

  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t i = 0; i < best.faults.size(); ++i) {
      Scenario candidate = best;
      candidate.faults.erase(candidate.faults.begin() +
                             static_cast<std::ptrdiff_t>(i));
      if (still_fails(candidate)) {
        best = std::move(candidate);
        progress = true;
        break;  // fault indices shifted — restart the scan
      }
    }
  }
  if (runs_used) *runs_used = runs;
  return best;
}

}  // namespace soda::chaos
