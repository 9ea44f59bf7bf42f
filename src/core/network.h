// Assembly of a whole SODA network: simulator + bus + nodes.
#pragma once

#include <memory>
#include <stdexcept>
#include <vector>

#include "core/node.h"
#include "net/bus.h"
#include "sim/simulator.h"

namespace soda {

struct NetworkOptions {
  std::uint64_t seed = 1;
  net::BusConfig bus{};
};

class Network {
 public:
  using Options = NetworkOptions;

  explicit Network(Options options = {})
      : sim_(options.seed), bus_(sim_, options.bus) {}

  /// Add a node; MIDs are assigned 0, 1, 2, ... in creation order. MID 0
  /// carries the SYSTEM privilege (§3.5.4), so create the manager first.
  Node& add_node(NodeConfig config = {}) {
    auto mid = static_cast<Mid>(nodes_.size());
    // Round-robin wheel affinity when the simulator is partitioned (a
    // no-op guard otherwise): the node's kernel timers, deliveries, and
    // client events all live on its wheel.
    sim::ScopedPartition guard(
        sim_, static_cast<int>(mid) % sim_.partition_count());
    nodes_.push_back(
        std::make_unique<Node>(sim_, bus_, mid, std::move(config), uids_));
    return *nodes_.back();
  }

  /// Create a node and immediately install a client of type T on it.
  template <typename T, typename... Args>
  T& spawn(NodeConfig config, Args&&... args) {
    Node& n = add_node(std::move(config));
    auto client = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *client;
    n.install_client(std::move(client), n.mid());
    return ref;
  }

  Node& node(Mid mid) {
    if (mid < 0 || static_cast<std::size_t>(mid) >= nodes_.size()) {
      throw std::out_of_range("no such node");
    }
    return *nodes_[static_cast<std::size_t>(mid)];
  }
  std::size_t size() const { return nodes_.size(); }

  sim::Simulator& sim() { return sim_; }
  net::Bus& bus() { return bus_; }
  UniqueIdSource& uids() { return uids_; }

  /// Run the simulation for a slice of simulated time.
  void run_for(sim::Duration d) { sim_.run_until(sim_.now() + d); }

  /// Propagate the first exception any client program hit.
  void check_clients() {
    for (auto& n : nodes_) {
      if (n->client()) n->client()->rethrow_error();
    }
  }

 private:
  sim::Simulator sim_;
  net::Bus bus_;
  UniqueIdSource uids_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

}  // namespace soda
