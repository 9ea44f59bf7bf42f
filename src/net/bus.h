// Broadcast bus model standing in for the CompuNet Megalink (§5.1): a
// 1 Mbit/s shared medium with hardware CRC (a damaged frame is silently
// discarded by the receiver's interface) and physical broadcast.
//
// Fault injection: a bus with no fault hook is a perfect medium. One
// FaultHook, installed with set_faults(), decides the fate of every
// (frame, receiver) delivery — drop it, CRC-damage it, delay it, deliver
// it twice — the way collisions, line noise and store-and-forward relays
// did on real media. UniformFaults is the random 1984 model; the
// soda::chaos scenario engine compiles its fault windows into a hook
// (chaos::link_faults).
//
// RNG affinity (hash epoch 2): the hook runs inside a bare arrival event
// scheduled at +wire on the *receiver's* wheel and draws from the
// receiver's partition stream. The sender's stream is never consumed by
// another node's luck, so each partition's draws are independent of the
// others' (doc/PERFORMANCE.md §5). Consequence: loss/CRC-drop trace
// records and the hook observe the *arrival* time of the frame, not the
// send time.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/frame_pool.h"
#include "net/packet.h"
#include "sim/simulator.h"
#include "stats/metrics.h"

namespace soda::net {

struct BusConfig {
  /// Wire time per byte. 1 Mbit/s = 8 us/byte, as in the paper's Megalink.
  sim::Duration us_per_byte = 8;
  /// Fixed propagation + interface latency per frame.
  sim::Duration propagation = 30;  // 30 us

  /// A "modern NIC" medium to pair with TimingModel::fast(): wire time is
  /// dominated by fixed per-frame latency, not serialization, so N-node
  /// scaling runs aren't bottlenecked on simulated 1 Mbit/s wire slots.
  static BusConfig fast() {
    BusConfig c;
    c.us_per_byte = 0;
    c.propagation = 2;
    return c;
  }
};

/// Receiver callback installed by a NIC. Zero-copy: the station shares the
/// pooled frame and may retain the ref past the callback (e.g. into a
/// deferred CPU work item) without copying the frame.
using FrameRefSink = std::function<void(const FrameRef&)>;

/// What happens to one (frame, receiver) delivery.
struct Fate {
  /// Lost outright: the receiver never sees it.
  bool drop = false;
  /// Arrives CRC-damaged: it consumed wire time, and the receiving
  /// interface discards it. Applies to the duplicate too.
  bool damage = false;
  /// Extra latency on top of the wire time.
  sim::Duration delay = 0;
  /// A second copy arrives `dup_lag` after the first (a relay or NIC
  /// retry artefact that exercises the alternating-bit duplicate check).
  bool duplicate = false;
  sim::Duration dup_lag = 0;

  bool operator==(const Fate&) const = default;
};

/// Per-delivery fault hook. Called once per (frame, receiver) delivery at
/// its arrival time `now`, with the receiver partition's stream `rng`.
using FaultHook = std::function<Fate(const Frame&, Mid dst, sim::Time now,
                                     sim::Rng& rng)>;

/// The 1984 random medium: independent per-delivery loss, corruption,
/// jitter and duplication. Draws in that order: loss (stopping at a
/// drop), corruption, jitter, duplication, then the duplicate's lag — a
/// degenerate probability draws nothing, a zero jitter draws no jitter,
/// and a duplicate always draws its lag, even when jitter is 0.
struct UniformFaults {
  /// Probability a frame is lost outright (collision model).
  double loss = 0.0;
  /// Probability a frame arrives damaged and is discarded after the CRC.
  double corruption = 0.0;
  /// Extra latency, uniform in [0, jitter]. A broadcast bus delivers in
  /// order, but store-and-forward media (or UDP) may not: jitter lets
  /// control frames overtake sequenced ones.
  sim::Duration jitter = 0;
  /// Probability a frame is delivered twice; the copy trails the original
  /// by an independent uniform [0, jitter] lag.
  double duplicate = 0.0;

  Fate operator()(const Frame&, Mid, sim::Time, sim::Rng& rng) const {
    Fate fate;
    fate.drop = rng.chance(loss);
    if (fate.drop) return fate;
    fate.damage = rng.chance(corruption);
    if (jitter > 0) fate.delay = rng.next_range(0, jitter);
    fate.duplicate = rng.chance(duplicate);
    if (fate.duplicate) fate.dup_lag = rng.next_range(0, jitter);
    return fate;
  }
};

/// Per-station broadcast interest predicate (models the pattern-address
/// filtering a NIC does in hardware, §5.3): return false and the bus never
/// delivers this broadcast frame to the station — no loss/corruption
/// draws, no scheduled event, no protocol_recv CPU at the receiver.
/// Unicast frames are never filtered.
using InterestFilter = std::function<bool(const Frame&)>;

class Bus {
 public:
  Bus(sim::Simulator& sim, BusConfig config) : sim_(sim), config_(config) {}
  virtual ~Bus() = default;

  /// Segment id stamped into this bus's packet-trace events (detail field)
  /// so multi-segment traces are attributable. -1 (the default) stamps
  /// nothing, keeping single-bus trace hashes byte-identical; Network sets
  /// it only while it has two or more segments.
  void set_segment(int segment) { segment_ = segment; }

  Bus(const Bus&) = delete;
  Bus& operator=(const Bus&) = delete;

  /// Attach a station. Frames addressed to `mid` or to kBroadcastMid are
  /// delivered to `sink` after serialization + propagation delay; the
  /// pooled frame is shared, not copied, and the sink may keep the ref
  /// alive past the call. The station's per-node MetricsRegistry and its
  /// wheel (the ambient partition) are bound here.
  void attach_ref(Mid mid, FrameRefSink sink) {
    stations_[mid] = Station{std::move(sink), &sim_.metrics().node(mid), {},
                             sim_.current_partition()};
  }

  void detach(Mid mid) { stations_.erase(mid); }

  /// Move `frame` into the pool and serialize it onto the bus.
  void send(Frame frame) { send_ref(pool_.make(std::move(frame))); }

  /// Serialize a pooled frame onto the bus. Each addressed receiver gets
  /// its own independent loss/corruption draw (broadcast frames can reach
  /// a subset, which is why the paper declines to make DISCOVER reliable,
  /// §3.4.4) but shares the one immutable frame — corruption is carried as
  /// per-delivery metadata, never a mutation. Virtual so alternative media
  /// (the posix/ UDP backend) can carry the same kernels over real sockets.
  ///
  /// No fault draws happen here: each receiver gets a bare arrival event
  /// at +wire on its own wheel, and all of that delivery's randomness
  /// comes from the receiver's partition stream.
  virtual void send_ref(FrameRef fref) {
    const Frame& frame = *fref;
    const std::size_t size = frame.wire_size();
    const sim::Duration wire =
        config_.propagation +
        static_cast<sim::Duration>(size) * config_.us_per_byte;
    sim_.trace().record(sim_.now(), sim::TraceCategory::kPacketSent,
                        frame.src, stamp(trace_payload(frame)));
    ++frames_sent_;
    bytes_sent_ += size;
    if (auto* m = metrics_for(frame.src)) {
      m->add(stats::Counter::kFramesSent);
      m->add(stats::Counter::kBytesSent, size);
    }
    if (frame.dst == kBroadcastMid) {
      for (const auto& [mid, station] : stations_) {
        if (mid == frame.src) continue;
        if (station.interest && !station.interest(frame)) {
          ++frames_filtered_;
          continue;  // NIC hardware filter: frame never reaches the kernel
        }
        schedule_arrival(mid, fref, wire);
      }
    } else {
      schedule_arrival(frame.dst, fref, wire);
    }
  }

  // --- statistics (used by tests and the bench harness) ---
  std::size_t frames_sent() const { return frames_sent_; }
  std::size_t bytes_sent() const { return bytes_sent_; }
  std::size_t frames_lost() const { return frames_lost_; }
  std::size_t frames_corrupted() const { return frames_corrupted_; }
  std::size_t frames_duplicated() const { return frames_duplicated_; }
  std::size_t frames_filtered() const { return frames_filtered_; }
  void reset_stats() {
    frames_sent_ = 0;
    bytes_sent_ = 0;
    frames_lost_ = 0;
    frames_corrupted_ = 0;
    frames_duplicated_ = 0;
    frames_filtered_ = 0;
  }

  const BusConfig& config() const { return config_; }

  /// Install (or clear, with nullptr) the fault hook that decides every
  /// delivery's fate. Keep added delays under the Delta-t MPL or the
  /// protocol's correctness assumptions (§5.2.2) are themselves under test.
  void set_faults(FaultHook hook) { faults_ = std::move(hook); }

  /// Install (or clear) a broadcast interest filter for one station. Only
  /// meaningful for an attached station; survives until detach().
  void set_interest_filter(Mid mid, InterestFilter filter) {
    auto it = stations_.find(mid);
    if (it != stations_.end()) it->second.interest = std::move(filter);
  }

  /// Register a promiscuous relay tap (a gateway NIC): unicast frames
  /// addressed to a MID with no station on this segment are handed to every
  /// tap instead of vanishing, after the same loss/corruption/latency
  /// treatment the intended receiver would have seen. The frame's own dst
  /// is left untouched — the tap sees where it was going, not itself.
  /// Broadcast frames reach a gateway through its ordinary station
  /// attachment, not the tap. With no taps registered the bus behaves
  /// byte-identically to a tap-less build.
  void add_relay_tap(Mid tap_mid, FrameRefSink sink) {
    remove_relay_tap(tap_mid);
    taps_.push_back(Tap{tap_mid, std::move(sink), sim_.current_partition()});
  }

  void remove_relay_tap(Mid tap_mid) {
    taps_.erase(std::remove_if(taps_.begin(), taps_.end(),
                               [&](const Tap& t) { return t.mid == tap_mid; }),
                taps_.end());
  }

  /// The frame pool backing this bus. Subclasses (and senders that build
  /// frames themselves) pool frames here before send_ref().
  FramePool& pool() { return pool_; }

 protected:
  /// The installed hook's fate for delivering `frame` to `dst` now; a
  /// perfect delivery, drawing nothing, when no hook is installed.
  Fate fate_of(const Frame& frame, Mid dst) {
    return faults_ ? faults_(frame, dst, sim_.now(), sim_.rng()) : Fate{};
  }

  /// Deliver a frame to one specific station's sink, leaving the frame's
  /// own dst untouched (a per-station broadcast datagram keeps its
  /// broadcast address so kernels can recognise DISCOVER queries).
  void deliver_to_one(Mid station, const FrameRef& f) {
    auto it = stations_.find(station);
    if (it != stations_.end()) it->second.sink(f);
  }

  sim::Simulator& simulator() { return sim_; }
  void count_sent(std::size_t bytes) {
    ++frames_sent_;
    bytes_sent_ += bytes;
  }

  /// Registry for an attached station, nullptr when not attached (e.g. a
  /// sender that was just powered off, or broadcast destination).
  stats::MetricsRegistry* metrics_for(Mid mid) {
    auto it = stations_.find(mid);
    return it == stations_.end() ? nullptr : it->second.metrics;
  }

 private:
  struct Station {
    FrameRefSink sink;
    stats::MetricsRegistry* metrics = nullptr;
    InterestFilter interest;  // empty = promiscuous (receive everything)
    int partition = 0;        // wheel affinity, captured at attach
  };

  struct Tap {
    Mid mid;
    FrameRefSink sink;
    int partition = 0;
  };

  /// Attribute a packet-trace payload to this bus's segment, when set.
  sim::TracePayload stamp(sim::TracePayload p) const {
    if (segment_ >= 0) p.with_detail(segment_);
    return p;
  }

  /// Partition with wheel affinity for deliveries addressed to `mid`: the
  /// station's own, a gateway's for an absent destination, else the
  /// sender's (frame vanishes there deterministically).
  int delivery_partition(Mid mid) const {
    if (auto it = stations_.find(mid); it != stations_.end()) {
      return it->second.partition;
    }
    if (!taps_.empty()) return taps_.front().partition;
    return sim_.current_partition();
  }

  /// Delivery path: schedule a bare arrival event at +wire on the
  /// receiver's wheel. Every fault draw for this delivery happens inside
  /// that event, from the receiver partition's stream — the sender's
  /// stream is untouched by the receiver's luck. The wire time is at least
  /// the bus propagation, which bounds the partitioned engine's lookahead
  /// — cross-partition traffic never schedules inside the current window.
  void schedule_arrival(Mid mid, const FrameRef& fref, sim::Duration wire) {
    sim::ScopedPartition guard(sim_, delivery_partition(mid));
    sim_.after(wire, [this, mid, f = fref]() { on_arrival(mid, f); });
  }

  /// Runs at +wire in the receiver's partition: ask the fault hook for
  /// this delivery's fate (its draws come from the receiver's stream),
  /// then deliver inline or after the fate's extra latency.
  void on_arrival(Mid mid, const FrameRef& f) {
    const Fate fate = fate_of(*f, mid);
    if (fate.drop) {
      sim_.trace().record(
          sim_.now(), sim::TraceCategory::kPacketDropped, mid,
          stamp(trace_payload(*f).with_status(sim::TraceStatus::kLost)));
      ++frames_lost_;
      if (auto* m = metrics_for(mid)) m->add(stats::Counter::kFramesDropped);
      return;
    }
    deliver_after(fate.delay, mid, f, false, fate.damage);
    if (fate.duplicate) {
      ++frames_duplicated_;
      deliver_after(fate.delay + fate.dup_lag, mid, f, true, fate.damage);
    }
  }

  void deliver_after(sim::Duration delay, Mid mid, const FrameRef& f,
                     bool duplicate, bool damaged) {
    if (delay == 0) {
      finish_delivery(mid, f, duplicate, damaged);
    } else {
      sim_.after(delay, [this, mid, duplicate, damaged, f]() {
        finish_delivery(mid, f, duplicate, damaged);
      });
    }
  }

  /// Terminal delivery step; CRC-discards corrupted deliveries (`damaged`
  /// is per-delivery — the shared frame is immutable). A delivery whose
  /// station is absent (powered off, or on another segment) goes to the
  /// relay taps instead, if any are registered.
  void finish_delivery(Mid mid, const FrameRef& f, bool duplicate,
                       bool damaged) {
    auto it = stations_.find(mid);
    if (it == stations_.end()) {
      // No station here. Historically the frame just vanished; with
      // relay taps registered it is the gateways' to forward — unless
      // the CRC check would have discarded it anyway.
      if (!damaged) {
        for (const auto& tap : taps_) {
          if (tap.mid == f->src) continue;
          tap.sink(f);
        }
      }
      return;
    }
    if (damaged) {
      sim_.trace().record(
          sim_.now(), sim::TraceCategory::kPacketDropped, mid,
          stamp(trace_payload(*f).with_status(sim::TraceStatus::kCrcDropped)));
      ++frames_corrupted_;
      if (auto* m = it->second.metrics) {
        m->add(stats::Counter::kFramesDropped);
        m->add(stats::Counter::kFramesCorrupted);
      }
      return;
    }
    auto payload = trace_payload(*f);
    if (duplicate) payload.with_status(sim::TraceStatus::kDuplicated);
    sim_.trace().record(sim_.now(), sim::TraceCategory::kPacketReceived, mid,
                        stamp(payload));
    if (auto* m = it->second.metrics) m->add(stats::Counter::kFramesReceived);
    it->second.sink(f);
  }

  sim::Simulator& sim_;
  BusConfig config_;
  FramePool pool_;
  std::unordered_map<Mid, Station> stations_;
  std::vector<Tap> taps_;
  int segment_ = -1;
  FaultHook faults_;
  std::size_t frames_sent_ = 0;
  std::size_t bytes_sent_ = 0;
  std::size_t frames_lost_ = 0;
  std::size_t frames_corrupted_ = 0;
  std::size_t frames_duplicated_ = 0;
  std::size_t frames_filtered_ = 0;
};

}  // namespace soda::net
