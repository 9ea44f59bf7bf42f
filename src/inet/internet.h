// Assembly of a multi-segment SODA internetwork: one simulator driving
// several net::Bus segments stitched together by inet::Gateway bridges.
//
// The single event queue is what keeps multi-segment runs bit-
// deterministic: every segment's deliveries and every gateway's drain
// holds are ordered by the one (time, seq) heap, so a run is still a pure
// function of (topology, seed) exactly as with core::Network. Nodes and
// gateways draw MIDs from one global counter in creation order, so MIDs
// remain unique across the whole internet (Delta-t's requester signature
// needs that, §3.3.1).
//
// With segments == 1 and no gateways this is core::Network with one
// indirection — but single-segment callers with pinned trace hashes keep
// using Network: Internet stamps segment ids into packet traces
// (Bus::set_segment), which changes hash-folded detail fields.
#pragma once

#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/node.h"
#include "inet/gateway.h"
#include "net/bus.h"
#include "sim/simulator.h"

namespace soda::inet {

struct InternetOptions {
  std::uint64_t seed = 1;
  int segments = 1;
  /// Default medium for every segment...
  net::BusConfig bus{};
  /// ...overridden per segment when an entry exists here (heterogeneous
  /// link speeds stress Delta-t across hops; see doc/INTERNET.md).
  std::vector<net::BusConfig> segment_bus{};
  GatewayConfig gateway{};
};

class Internet {
 public:
  using Options = InternetOptions;

  explicit Internet(Options options = {})
      : options_(std::move(options)), sim_(options_.seed) {
    const int n = options_.segments < 1 ? 1 : options_.segments;
    buses_.reserve(static_cast<std::size_t>(n));
    for (int s = 0; s < n; ++s) {
      const net::BusConfig bc =
          static_cast<std::size_t>(s) < options_.segment_bus.size()
              ? options_.segment_bus[static_cast<std::size_t>(s)]
              : options_.bus;
      buses_.push_back(std::make_unique<net::Bus>(sim_, bc));
      buses_.back()->set_segment(s);
    }
  }

  /// Append one more (empty) segment and return its id. Interactive
  /// assembly (soda_shell) grows topologies this way; gateways added with
  /// an empty segment list earlier do NOT auto-attach to later segments.
  int add_segment() {
    const int id = static_cast<int>(buses_.size());
    buses_.push_back(std::make_unique<net::Bus>(sim_, options_.bus));
    buses_.back()->set_segment(id);
    return id;
  }

  /// Add a node attached to `segment`. MIDs are assigned 0, 1, 2, ... in
  /// creation order across nodes AND gateways, so create the manager (MID
  /// 0, §3.5.4) first.
  Node& add_node(int segment, NodeConfig config = {}) {
    auto& bus = *buses_.at(static_cast<std::size_t>(segment));
    const Mid mid = next_mid_++;
    // Segment-keyed wheel affinity when the simulator is partitioned (a
    // no-op guard otherwise). Gateways stay on wheel 0; every
    // cross-partition edge is then a bus delivery or a gateway hold,
    // both bounded below by lookahead().
    sim::ScopedPartition guard(sim_, segment % sim_.partition_count());
    nodes_.push_back(
        std::make_unique<Node>(sim_, bus, mid, std::move(config), uids_));
    node_index_[mid] = nodes_.size() - 1;
    node_segment_[mid] = segment;
    return *nodes_.back();
  }

  /// Create a node on `segment` and install a client of type T on it.
  template <typename T, typename... Args>
  T& spawn(int segment, NodeConfig config, Args&&... args) {
    Node& n = add_node(segment, std::move(config));
    auto client = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *client;
    n.install_client(std::move(client), n.mid());
    return ref;
  }

  /// Add a gateway bridging the given segment ids — all segments when the
  /// list is empty (the hub of a star topology). Draws its MID from the
  /// same counter as nodes.
  Gateway& add_gateway(std::vector<int> segments = {}) {
    const Mid mid = next_mid_++;
    gateways_.push_back(
        std::make_unique<Gateway>(sim_, mid, options_.gateway));
    Gateway& g = *gateways_.back();
    if (segments.empty()) {
      for (std::size_t s = 0; s < buses_.size(); ++s) {
        g.attach_segment(static_cast<int>(s), *buses_[s]);
      }
    } else {
      for (int s : segments) {
        g.attach_segment(s, *buses_.at(static_cast<std::size_t>(s)));
      }
    }
    return g;
  }

  bool has_node(Mid mid) const { return node_index_.count(mid) > 0; }

  Node& node(Mid mid) {
    auto it = node_index_.find(mid);
    if (it == node_index_.end()) throw std::out_of_range("no such node");
    return *nodes_[it->second];
  }

  /// Segment a node was created on; -1 for gateways / unknown MIDs.
  int segment_of(Mid mid) const {
    auto it = node_segment_.find(mid);
    return it == node_segment_.end() ? -1 : it->second;
  }

  std::size_t size() const { return nodes_.size(); }
  int segments() const { return static_cast<int>(buses_.size()); }

  sim::Simulator& sim() { return sim_; }

  /// Conservative lookahead window this topology guarantees: an event on
  /// one segment cannot cause an event on another sooner than the minimum
  /// of every segment's propagation delay and the gateways' hold time
  /// (doc/PERFORMANCE.md §parallel). Feed to Simulator::set_lookahead.
  sim::Duration lookahead() const {
    sim::Duration la = std::numeric_limits<sim::Duration>::max();
    for (const auto& b : buses_) la = std::min(la, b->config().propagation);
    if (!gateways_.empty()) la = std::min(la, options_.gateway.relay_latency);
    return la == std::numeric_limits<sim::Duration>::max() ? 0 : la;
  }

  net::Bus& bus(int segment = 0) {
    return *buses_.at(static_cast<std::size_t>(segment));
  }
  UniqueIdSource& uids() { return uids_; }
  std::vector<std::unique_ptr<Gateway>>& gateways() { return gateways_; }

  void run_for(sim::Duration d) { sim_.run_until(sim_.now() + d); }

  /// Propagate the first exception any client program hit.
  void check_clients() {
    for (auto& n : nodes_) {
      if (n->client()) n->client()->rethrow_error();
    }
  }

 private:
  Options options_;
  sim::Simulator sim_;
  std::vector<std::unique_ptr<net::Bus>> buses_;
  UniqueIdSource uids_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::unordered_map<Mid, std::size_t> node_index_;
  std::unordered_map<Mid, int> node_segment_;
  std::vector<std::unique_ptr<Gateway>> gateways_;
  Mid next_mid_ = 0;
};

}  // namespace soda::inet
