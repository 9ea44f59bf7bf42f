// Assembly of a whole SODA network: one simulator driving one broadcast
// bus per segment, the nodes on them, the unique-id source and the one
// MID counter. A one-segment Network is the paper's network (one
// Megalink, §2); inet::Internet adds the gateways that join two or more
// segments into an internetwork (doc/INTERNET.md).
//
// The single event queue is what keeps multi-segment runs bit-
// deterministic: every segment's deliveries are ordered by the one
// (time, seq) order, so a run is a pure function of (topology, seed).
// Nodes (and gateways) draw MIDs from one counter in creation order, so
// MIDs stay unique across every segment (Delta-t's requester signature
// needs that, §3.3.1).
//
// Two rules make a one-segment topology byte-identical to the classic
// single bus, whose trace hashes are pinned:
//   1. a bus stamps its segment id into packet traces only while the
//      topology has two or more segments (add_segment turns bus 0's
//      stamp on when it adds the second);
//   2. a node's wheel affinity is its segment on several segments and
//      its MID on one.
#pragma once

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/node.h"
#include "net/bus.h"
#include "sim/simulator.h"

namespace soda {

struct NetworkOptions {
  std::uint64_t seed = 1;
  int segments = 1;
  /// Default medium for every segment...
  net::BusConfig bus{};
  /// ...overridden per segment when an entry exists here (heterogeneous
  /// link speeds stress Delta-t across hops; see doc/INTERNET.md).
  std::vector<net::BusConfig> segment_bus{};
};

class Network {
 public:
  using Options = NetworkOptions;

  explicit Network(const Options& options = {})
      : default_bus_(options.bus), sim_(options.seed) {
    const int n = std::max(1, options.segments);
    buses_.reserve(static_cast<std::size_t>(n));
    for (std::size_t s = 0; s < static_cast<std::size_t>(n); ++s) {
      buses_.push_back(std::make_unique<net::Bus>(
          sim_, s < options.segment_bus.size() ? options.segment_bus[s]
                                               : options.bus));
    }
    stamp_segments();
  }
  virtual ~Network() = default;

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Add a node on segment 0. MIDs are assigned 0, 1, 2, ... in creation
  /// order. MID 0 carries the SYSTEM privilege (§3.5.4), so create the
  /// manager first.
  Node& add_node(NodeConfig config = {}) {
    return add_node(0, std::move(config));
  }

  /// Add a node attached to `segment`.
  Node& add_node(int segment, NodeConfig config = {}) {
    net::Bus& bus = this->bus(segment);
    const Mid mid = static_cast<Mid>(stations_.size());
    // Wheel affinity (wheel 0 on a one-partition simulator): the node's
    // kernel timers, deliveries and client events all live on its wheel.
    // Every cross-partition edge is then a bus delivery or a gateway
    // hold, both bounded below by lookahead().
    const int key = segments() > 1 ? segment : static_cast<int>(mid);
    sim::ScopedPartition guard(sim_, key % sim_.partition_count());
    stations_.push_back(Station{
        std::make_unique<Node>(sim_, bus, mid, std::move(config), uids_),
        segment});
    ++node_count_;
    return *stations_.back().node;
  }

  /// Create a node on segment 0 and install a client of type T on it.
  template <typename T, typename... Args>
  T& spawn(NodeConfig config, Args&&... args) {
    return spawn<T>(0, std::move(config), std::forward<Args>(args)...);
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

  /// Append one more (empty) segment and return its id. Interactive
  /// assembly (soda_shell) grows topologies this way.
  int add_segment() {
    buses_.push_back(std::make_unique<net::Bus>(sim_, default_bus_));
    stamp_segments();
    return segments() - 1;
  }

  /// The node with this MID; throws std::out_of_range for a gateway's or
  /// an unknown MID.
  Node& node(Mid mid) {
    const Station* s = station(mid);
    if (s == nullptr) throw std::out_of_range("no such node");
    return *s->node;
  }

  /// Segment a node was created on; -1 for gateways / unknown MIDs.
  int segment_of(Mid mid) const {
    const Station* s = station(mid);
    return s == nullptr ? -1 : s->segment;
  }

  std::size_t size() const { return node_count_; }
  int segments() const { return static_cast<int>(buses_.size()); }

  sim::Simulator& sim() { return sim_; }
  net::Bus& bus(int segment = 0) {
    return *buses_.at(static_cast<std::size_t>(segment));
  }
  UniqueIdSource& uids() { return uids_; }

  /// Conservative lookahead window this topology guarantees: an event on
  /// one partition cannot cause an event on another sooner than the
  /// smallest propagation delay of any segment (doc/PERFORMANCE.md
  /// §parallel). Feed to Simulator::set_lookahead.
  virtual sim::Duration lookahead() const {
    sim::Duration la = buses_.front()->config().propagation;
    for (const auto& b : buses_) la = std::min(la, b->config().propagation);
    return la;
  }

  /// Run the simulation for a slice of simulated time.
  void run_for(sim::Duration d) { sim_.run_until(sim_.now() + d); }

  /// Propagate the first exception any client program hit.
  void check_clients() {
    for (auto& s : stations_) {
      if (s.node && s.node->client()) s.node->client()->rethrow_error();
    }
  }

 protected:
  /// Draw the next MID for a station that is not a node (a gateway); its
  /// slot in the node index stays empty.
  Mid reserve_mid() {
    stations_.emplace_back();
    return static_cast<Mid>(stations_.size() - 1);
  }

 private:
  struct Station {
    std::unique_ptr<Node> node;  // empty for a gateway
    int segment = -1;
  };

  const Station* station(Mid mid) const {
    if (mid < 0 || static_cast<std::size_t>(mid) >= stations_.size()) {
      return nullptr;
    }
    const Station& s = stations_[static_cast<std::size_t>(mid)];
    return s.node ? &s : nullptr;
  }

  /// Rule 1 above: segment ids go into packet traces only once there is
  /// more than one segment to tell apart.
  void stamp_segments() {
    if (buses_.size() < 2) return;
    for (std::size_t s = 0; s < buses_.size(); ++s) {
      buses_[s]->set_segment(static_cast<int>(s));
    }
  }

  net::BusConfig default_bus_;
  sim::Simulator sim_;
  std::vector<std::unique_ptr<net::Bus>> buses_;
  UniqueIdSource uids_;
  std::vector<Station> stations_;  // indexed by MID
  std::size_t node_count_ = 0;
};

}  // namespace soda
