// Gateway node bridging net::Bus segments (doc/INTERNET.md).
//
// The paper's SODA network is one broadcast bus; every O(N) wall measured
// in PR 3-PR 6 traces back to that shared medium. A Gateway stitches
// several buses into an internetwork the way a transparent LAN bridge
// does: it listens promiscuously on every attached segment (broadcasts
// through an ordinary station attachment, unicasts to absent MIDs through
// the bus relay tap), learns which segment each source MID lives behind
// from the frames it sees, and store-and-forwards copies onto the other
// segments through a bounded per-segment egress queue drained at the
// egress link's serialization rate.
//
// Loop policy: a relayed frame carries a hop count (Frame::hops, stamped
// on every traversal) and the MID of the last relay (Frame::relay_src).
// A gateway never forwards a frame back onto the segment it arrived on,
// drops its own echoes (relay_src == mid()), and drops anything that has
// already travelled `ttl` hops — so redundant bridges and physical rings
// produce bounded transients, not broadcast storms. Duplicate copies that
// do arrive over parallel paths are rejected by the protocol's
// alternating-bit machinery exactly like bus-duplicated frames.
//
// The pattern-route table is learned from DISCOVER replies crossing the
// gateway (the reply's pattern names a server on the reply's source side),
// giving `soda_shell routes` and the anycast hop bias a directory of which
// patterns live how many hops away.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "net/bus.h"
#include "net/packet.h"
#include "sim/simulator.h"

namespace soda::inet {

struct GatewayConfig {
  /// Maximum store-and-forward traversals before a frame is discarded.
  /// 4 crosses any topology we build (star, chain-of-3, ring) with slack.
  std::uint8_t ttl = 4;
  /// Bounded egress queue per attached segment; overflow drops the frame
  /// (and traces kRelay/kQueueOverflow — routers shed, they don't block).
  std::size_t egress_queue_limit = 64;
  /// Store-and-forward processing time per relayed frame (lookup + copy
  /// between NICs), charged before egress serialization.
  sim::Duration relay_latency = 20;  // us

  /// Companion to TimingModel::fast() / BusConfig::fast(). Two knobs move:
  ///
  /// - relay_latency 20 -> 1 us. The fast bus is an infinite-capacity
  ///   medium (us_per_byte = 0), so a 20 us/frame relay hold would make
  ///   the gateway the only finite-rate element: at a thousand stations
  ///   the hub saturates, queueing delay blows through the preset's
  ///   200 us retransmit interval and its 1.5 ms probe-miss crash window,
  ///   and every queued frame gets retransmitted into the queue again
  ///   (the bufferbloat spiral — measured, not imagined: a 2 us hold put
  ///   the port at ~90% utilization at 1024 nodes and DOUBLED offered
  ///   load through duplicates). 1 us keeps per-port service rate above
  ///   the fleet's worst-case demand.
  /// - egress_queue_limit 64 -> 1024. A thousand-station segment lands
  ///   hundreds of synchronized first-round REQUESTs on the hub in one
  ///   propagation slot, and their ~40 us retransmit jitter never
  ///   decorrelates 200-frame waves arriving every 200 us — a shallow
  ///   queue sheds part of every wave until retry budgets burn out. A
  ///   deep queue is only safe because the queue coalesces (see Port):
  ///   backlog is bounded by *distinct* in-flight frames, so worst-case
  ///   drain stays around the fleet size x 1 us — inside the 1.5 ms
  ///   probe-miss crash window (the Delta-t-across-hops caveat,
  ///   doc/INTERNET.md).
  static GatewayConfig fast() {
    GatewayConfig c;
    c.relay_latency = 1;
    c.egress_queue_limit = 1024;
    return c;
  }
};

/// One learned route: reach `mid` via `segment`, `hops` relays beyond it.
struct MidRoute {
  net::Mid mid = net::kBroadcastMid;
  int segment = -1;
  std::uint8_t hops = 0;
};

/// One learned pattern route (from DISCOVER replies): servers advertising
/// `pattern` live via `segment`, `hops` relays beyond it.
struct PatternRoute {
  net::Pattern pattern = 0;
  int segment = -1;
  std::uint8_t hops = 0;
};

/// Deterministic relay predicate (the chaos engine's inter-segment
/// partition lever): return true to drop a frame about to be relayed from
/// `from_segment` to `to_segment`. Directional — install windows for both
/// directions to cut a link symmetrically.
using ForwardFilter =
    std::function<bool(const net::Frame&, int from_segment, int to_segment)>;

class Gateway {
 public:
  Gateway(sim::Simulator& sim, net::Mid mid, GatewayConfig config = {});
  ~Gateway();

  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;

  /// Attach this gateway to a segment. `segment_id` is the bus's index in
  /// the topology (used in route dumps and trace details).
  /// Call once per segment, before the simulation runs.
  void attach_segment(int segment_id, net::Bus& bus);

  /// Hard failure: detach from every segment, dropping queued frames and
  /// all learned routes (a rebooted bridge re-learns from live traffic).
  void crash();

  /// Power the gateway back on: re-attach every port with empty tables.
  void reboot();

  bool alive() const { return alive_; }
  net::Mid mid() const { return mid_; }

  /// Segment ids this gateway bridges, in attach order.
  std::vector<int> segment_ids() const;

  /// Egress queue depth per attached segment, in attach order.
  std::vector<std::size_t> queue_depths() const;

  /// Learned MID routes, sorted by MID (deterministic dump order).
  std::vector<MidRoute> mid_routes() const;

  /// Learned pattern routes, sorted by pattern.
  std::vector<PatternRoute> pattern_routes() const;

  // --- counters ---
  std::size_t forwarded() const { return forwarded_; }
  std::size_t ttl_drops() const { return ttl_drops_; }
  std::size_t overflow_drops() const { return overflow_drops_; }
  std::size_t no_route_drops() const { return no_route_drops_; }
  std::size_t coalesced() const { return coalesced_; }
  /// Unknown-MID unicasts steered by a learned pattern route instead of
  /// being flooded to every other segment (doc/INTERNET.md §2).
  std::size_t pattern_forwards() const { return pattern_forwards_; }

  /// Install (or clear, with nullptr) a deterministic relay predicate.
  /// Survives crash/reboot — it models the links, not the gateway.
  void set_forward_filter(ForwardFilter filter) {
    forward_filter_ = std::move(filter);
  }

  const GatewayConfig& config() const { return config_; }

 private:
  struct Route {
    int segment = -1;
    std::uint8_t hops = 0;
  };

  struct Port {
    int segment_id = -1;
    net::Bus* bus = nullptr;
    std::deque<net::FrameRef> queue;   // egress frames, already restamped
    std::deque<std::uint64_t> keys;    // wire-image hash per queued frame
    /// Occurrence count per wire-image hash of the frames currently
    /// queued: the egress queue *coalesces* — a Delta-t retransmit of a
    /// frame that is still waiting in this queue is byte-identical and
    /// adds no information, so it is dropped on arrival instead of
    /// doubling the backlog (the saturation spiral: queueing delay past
    /// the sender's retransmit interval turns every queued frame into
    /// two). Once the copy leaves the queue, later retransmits relay
    /// normally, so loss downstream is still repaired end to end.
    std::unordered_map<std::uint64_t, std::uint32_t> queued_count;
    bool busy = false;                 // a drain hold is in flight
  };

  void attach_port(Port& port, std::size_t port_idx);
  void on_frame(std::size_t port_idx, const net::FrameRef& f);
  void learn(std::size_t port_idx, const net::Frame& f);
  void relay(std::size_t from_idx, std::size_t target_idx,
             const net::Frame& f);
  void enqueue(std::size_t target_idx, const net::Frame& f);
  void pump(std::size_t target_idx);
  void trace_relay(const net::Frame& f, sim::TraceStatus status,
                   int segment_detail);

  sim::Simulator& sim_;
  net::Mid mid_;
  GatewayConfig config_;
  std::vector<Port> ports_;
  std::unordered_map<net::Mid, Route> mid_routes_;
  std::unordered_map<net::Pattern, Route> pattern_routes_;
  ForwardFilter forward_filter_;
  bool alive_ = true;
  std::uint64_t gen_ = 0;  // bumped on crash: invalidates in-flight holds
  std::size_t forwarded_ = 0;
  std::size_t ttl_drops_ = 0;
  std::size_t overflow_drops_ = 0;
  std::size_t no_route_drops_ = 0;
  std::size_t coalesced_ = 0;
  std::size_t pattern_forwards_ = 0;
};

}  // namespace soda::inet
