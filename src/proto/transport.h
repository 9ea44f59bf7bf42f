// Reliable kernel-to-kernel transport (§5.2.2–§5.2.3).
//
// Per peer, the transport keeps one Delta-t connection record holding:
//   * sequence state for each direction (stop-and-wait: at most one
//     unacknowledged sequenced frame outstanding per direction, numbered
//     by a mod-256 counter so a frame abandoned after the retransmission
//     budget cannot be confused with its successor),
//   * the retransmission timer with random backoff, slowed when the peer
//     reports a BUSY handler,
//   * a delayed-ACK slot so acknowledgements piggyback on imminent reverse
//     traffic (the paper's ACCEPT+ACK / DATA+ACK / ACK+REQUEST frames),
//   * the last composite response, so a retransmitted frame from the peer
//     is re-answered from connection state ("if the ACK is lost,
//     retransmissions by the requester will be acked with the appropriate
//     information"),
//   * the record-expiry timer implementing Delta-t's take-any-sequence-
//     number rule after MPL + delta-t of silence.
//
// The SODA kernel (src/core) sits on top and supplies classification
// (deliver / BUSY-NACK / error-NACK) and section processing.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <unordered_map>

#include "net/bus.h"
#include "net/packet.h"
#include "proto/timing.h"
#include "sim/simulator.h"
#include "stats/metrics.h"

namespace soda::proto {

/// What the kernel wants done with an arriving sequenced frame.
enum class Disposition : std::uint8_t {
  kDeliver,  // consume the sequence bit; an ACK is now owed
  kBusy,     // handler BUSY/CLOSED: reply BUSY-NACK, do not consume seq
  kError,    // reply error NACK (unadvertised pattern etc.)
  kHold,     // pipelined kernels: keep the frame in the input buffer with
             // no response; the kernel later calls accept_held() or
             // reject_held() (§5.2.3, "the pipelined version")
};

struct DispositionResult {
  Disposition disposition = Disposition::kDeliver;
  net::NackReason error = net::NackReason::kUnadvertised;
  net::Tid nack_tid = net::kNoTid;  // tid echoed in an error NACK
  std::uint8_t busy_hint = 0;       // shed severity carried on a BUSY NACK
};

struct SendOptions {
  /// Retransmissions omit the data block (§5.2.3: "A REQUEST is only sent
  /// with data one time").
  bool strip_data_on_retransmit = false;
  /// Jump ahead of queued frames (behind the outstanding one). Late DATA
  /// frames completing an in-progress ACCEPT must precede queued
  /// REQUESTs, or the blocked server handler never frees to take them.
  bool urgent = false;
  /// Additional retransmission allowance for the expected response (a GET
  /// REQUEST is tiny but its ACCEPT+DATA answer can take tens of ms).
  sim::Duration response_allowance = 0;
};

struct TransportCallbacks {
  /// Classify an arriving sequenced frame (not called for duplicates).
  std::function<DispositionResult(const net::Frame&)> classify;
  /// Deliver the sections of an arriving frame (sequenced frames only after
  /// classification said kDeliver; control frames always).
  std::function<void(const net::Frame&)> deliver;
  /// Our outstanding sequenced frame to `peer` was acknowledged.
  std::function<void(net::Mid peer, const net::Frame& sent)> on_acked;
  /// Our outstanding sequenced frame failed: error NACK, or the peer went
  /// silent past the retransmission budget (reported as kCrashed).
  std::function<void(net::Mid peer, const net::Frame& sent,
                     net::NackReason reason)>
      on_failed;
  /// Optional: the peer BUSY-NACKed our outstanding frame, carrying shed
  /// severity `hint` (0 = plain busy handler). Observational only — the
  /// transport's own backoff handling is unchanged whether or not this is
  /// set. The kernel uses it to refresh anycast pool shed scores.
  std::function<void(net::Mid peer, const net::Frame& sent,
                     std::uint8_t hint)>
      on_busy;
};

class Transport {
 public:
  Transport(sim::Simulator& sim, net::Bus& bus, net::Mid mid,
            const TimingModel& timing, NodeCpu& cpu,
            TransportCallbacks callbacks);
  ~Transport();

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  net::Mid mid() const { return mid_; }

  /// Send a frame needing reliable delivery. Frames to the same peer are
  /// sent strictly in order (stop-and-wait), which yields the paper's
  /// REQUEST-ordering guarantee (§3.3.2 note 3).
  void send_sequenced(net::Mid peer, net::Frame frame, SendOptions opts = {});

  /// Send an unsequenced control frame. Any pending ACK owed to `peer` is
  /// piggybacked. When `store_as_response` is set the frame is remembered
  /// in the connection record and re-sent verbatim if the peer
  /// retransmits (carries ACCEPT information for a lost ACCEPT+ACK).
  void send_control(net::Mid peer, net::Frame frame,
                    bool store_as_response = false);

  /// Broadcast an unsequenced frame to every station (DISCOVER).
  void broadcast(net::Frame frame);

  /// Consume a frame previously classified kHold: record its sequence bit,
  /// owe its ACK, and deliver it to the kernel.
  void accept_held(const net::Frame& frame);

  /// Give up on a held frame: reply BUSY-NACK so the peer's backoff
  /// machinery takes over.
  void reject_held(const net::Frame& frame);

  /// Crash / DIE: drop every record, timer and queued frame, then observe
  /// the Delta-t quarantine (2*MPL + delta-t) before communicating again.
  void reset();

  /// True while the post-crash quiet period is in force.
  bool quarantined() const;

  /// True when an acknowledgement to `peer` is still being delayed for
  /// piggybacking. While it is, a composite response sent with
  /// send_control(..., store_as_response=true) is reliable: the peer's
  /// retransmission pressure replays it (the paper's ACCEPT+ACK).
  bool ack_pending(net::Mid peer) const {
    auto it = records_.find(peer);
    return it != records_.end() && it->second.ack_owed;
  }

  /// Number of connection records currently held (N-1 max, §5.2.2).
  std::size_t open_connections() const { return records_.size(); }

 private:
  struct Record {
    // receive direction
    bool has_recv = false;
    std::uint8_t last_recv_seq = 0;
    sim::Time last_recv_at = 0;  // ages the receive half independently
    // send direction (mod-256 sequence counter)
    std::uint8_t send_bit = 0;
    std::optional<net::Frame> outstanding;
    SendOptions outstanding_opts;
    int ack_attempts = 0;   // transmissions without hearing from the peer
    int busy_attempts = 0;  // BUSY-NACKed offers of the current frame
    bool retransmitted_once = false;
    sim::EventId retransmit_timer = 0;
    bool retransmit_armed = false;
    std::deque<std::pair<net::Frame, SendOptions>> queue;
    // delayed acknowledgement
    bool ack_owed = false;
    std::uint8_t ack_seq = 0;
    sim::EventId ack_timer = 0;
    bool ack_timer_armed = false;
    // response replay for duplicate frames
    std::optional<net::Frame> last_response;
    // Delta-t record lifetime
    sim::EventId expiry_timer = 0;
    bool expiry_armed = false;
    sim::Time last_activity = 0;  // drives the lazy expiry re-arm
    sim::Time opened_at = 0;           // for the record-lifetime histogram
    sim::Duration pending_backoff = 0;  // delay armed before a retransmit
    sim::Duration busy_backoff_prev = 0;  // decorrelated-jitter state
  };

  Record& record(net::Mid peer);
  void touch(Record& r, net::Mid peer);
  void arm_expiry(Record& r, net::Mid peer, sim::Duration delay);
  void drop_record(net::Mid peer);

  void on_bus_frame(const net::FrameRef& f);
  void process_frame(const net::Frame& f);
  void process_ack(net::Mid peer, Record& r, const net::Frame& f);
  void process_nack(net::Mid peer, Record& r, const net::Frame& f);
  void process_sequenced(net::Mid peer, Record& r, const net::Frame& f);

  sim::Duration next_busy_pace(Record& r, std::uint8_t hint);
  void transmit_outstanding(net::Mid peer, Record& r, bool is_retransmit);
  void arm_retransmit(net::Mid peer, Record& r, sim::Duration delay);
  void disarm_retransmit(Record& r);
  void clear_outstanding_and_advance(net::Mid peer, Record& r);
  void owe_ack(net::Mid peer, Record& r, std::uint8_t seq);
  void attach_pending_ack(net::Mid peer, Record& r, net::Frame& f);
  void flush_ack(net::Mid peer);
  void send_now(net::Frame f, bool sequenced_costs);

  bool stale(std::uint64_t epoch) const { return epoch != epoch_; }

  sim::Simulator& sim_;
  net::Bus& bus_;
  net::Mid mid_;
  const TimingModel& timing_;
  NodeCpu& cpu_;
  stats::MetricsRegistry* metrics_;  // this node's registry, never null
  TransportCallbacks cb_;
  std::unordered_map<net::Mid, Record> records_;
  sim::Time rejoin_at_ = 0;
  std::uint64_t epoch_ = 0;  // bumped on reset(); invalidates timers
};

}  // namespace soda::proto
