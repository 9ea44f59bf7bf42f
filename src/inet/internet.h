// A SODA internetwork: a core::Network of several bus segments stitched
// together by inet::Gateway bridges. Network owns the simulator, the
// buses, the nodes and the MID counter; Internet adds only the gateways,
// which draw their MIDs from the same counter as nodes. With one segment
// and no gateway an Internet is exactly a Network, traces included
// (core/network.h states the two rules that make it so).
#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "core/network.h"
#include "inet/gateway.h"

namespace soda::inet {

struct InternetOptions : NetworkOptions {
  GatewayConfig gateway{};
};

class Internet : public Network {
 public:
  using Options = InternetOptions;

  explicit Internet(const Options& options = {})
      : Network(options), gateway_config_(options.gateway) {}

  /// Add a gateway bridging the given segment ids — all segments when the
  /// list is empty (the hub of a star topology). Draws its MID from the
  /// same counter as nodes. A gateway does not attach to segments added
  /// after it.
  Gateway& add_gateway(std::vector<int> segments = {}) {
    if (segments.empty()) {
      for (int s = 0; s < this->segments(); ++s) segments.push_back(s);
    }
    gateways_.push_back(
        std::make_unique<Gateway>(sim(), reserve_mid(), gateway_config_));
    Gateway& g = *gateways_.back();
    for (int s : segments) g.attach_segment(s, bus(s));
    return g;
  }

  std::vector<std::unique_ptr<Gateway>>& gateways() { return gateways_; }

  /// Network's bound, tightened by the gateways' hold time: a relayed
  /// frame reaches the next segment no sooner than relay_latency.
  sim::Duration lookahead() const override {
    const sim::Duration la = Network::lookahead();
    return gateways_.empty() ? la
                             : std::min(la, gateway_config_.relay_latency);
  }

 private:
  GatewayConfig gateway_config_;
  std::vector<std::unique_ptr<Gateway>> gateways_;
};

}  // namespace soda::inet
