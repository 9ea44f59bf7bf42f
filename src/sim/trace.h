// Structured trace sink for simulator events.
//
// Traces serve three purposes: debugging protocol state machines, feeding
// the Delta-t timeline bench (bench_deltat_timeline reproduces the paper's
// "Typical Delta-t Situations" figure from trace records), and asserting
// packet counts in tests without reaching into kernel internals.
//
// Events carry a typed payload (peer/tid/pattern/size/sections/status plus
// a small detail variant) instead of a free-form string, so recording an
// event never allocates. Human-readable text is produced on demand by
// describe(); machine-readable JSONL by to_json()/trace_event_from_json().
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <variant>
#include <vector>

#include "sim/time.h"

namespace soda::sim {

enum class TraceCategory : std::uint8_t {
  kPacketSent,
  kPacketReceived,
  kPacketDropped,     // lost or CRC-discarded on the bus
  kHandlerInvoked,
  kHandlerEnded,
  kRequestIssued,
  kRequestDelivered,  // REQUEST handed to the server-side kernel (the "tag")
  kRequestCompleted,
  kAcceptIssued,
  kAcceptCompleted,
  kConnectionOpened,  // Delta-t record created
  kConnectionClosed,  // Delta-t record timed out
  kCrashDetected,
  kRetransmit,
  kProbe,
  kBoot,
  kOther,
  kRelay,             // gateway store-and-forward decision (soda::inet)
};

constexpr std::size_t kNumTraceCategories =
    static_cast<std::size_t>(TraceCategory::kRelay) + 1;

const char* to_string(TraceCategory c);
std::optional<TraceCategory> trace_category_from_string(std::string_view s);

/// Fine-grained qualifier for an event within its category — replaces the
/// old free-form detail strings ("lost:", "peer N silent", ...).
enum class TraceStatus : std::uint8_t {
  kNone,
  // kPacketDropped
  kLost,           // random loss on the bus
  kCrcDropped,     // corrupted frame discarded by receiver CRC
  // kConnectionClosed / kCrashDetected
  kExpired,        // Delta-t record lifetime elapsed
  kSilent,         // peer failed to ACK within the crash timeout
  // kHandlerInvoked
  kArrival,        // handler scheduled by a request arrival
  kCompletion,     // handler scheduled by a completion
  // kAcceptCompleted
  kPiggybacked,    // satisfied by data carried on the request frame
  // kProbe
  kQuery,          // outbound liveness probe
  kReplyKnown,     // probe reply: tid still in progress
  kReplyUnknown,   // probe reply: tid unknown (crashed / finished)
  // kBoot
  kDie,            // node executed the kill pattern
  kKilled,         // node torn down by crash injection
  kBooting,        // client boot sequence started
  kLoadAllocated,  // boot server allocated a load pattern
  kUnknownImage,   // boot request named a core image we don't have
  // kRequestCompleted
  kCompleted,
  kCrashed,
  kUnadvertised,
  kTimedOut,       // BUSY retry budget exhausted; degraded locally
  // kRetransmit
  kLateData,       // data re-sent for an already-answered request
  kBusyRetry,      // retry paced by a BUSY NACK
  kTimeout,        // retry driven by the retransmit timer
  // kPacketReceived
  kDuplicated,     // extra copy injected by the bus duplicate fault
  // kAcceptCompleted
  kCancelled,      // the ACCEPT failed: request completed/cancelled first
  // kOther
  kShed,           // admission control BUSY-NACKed before section processing
  kSkewWarning,    // timer-skew config outside the at-most-once envelope
  // kRelay (gateway store-and-forward, soda::inet)
  kForwarded,      // frame relayed onto another segment
  kTtlExpired,     // hop budget exhausted; frame not forwarded
  kQueueOverflow,  // bounded egress queue full; frame dropped
  kNoRoute,        // gateway declined to forward (self-echo / local dst)
  // kBoot (appended to keep prior numeric values stable)
  kLoadAbandoned,  // load deadline expired; machine returned to free pool
};

const char* to_string(TraceStatus s);
std::optional<TraceStatus> trace_status_from_string(std::string_view s);

/// Which protocol sections a traced frame carried (bitmask). Lets tests
/// filter packet events structurally (e.g. "all DISCOVER replies") without
/// parsing strings.
namespace frame_section {
inline constexpr std::uint16_t kSeq = 1u << 0;
inline constexpr std::uint16_t kAck = 1u << 1;
inline constexpr std::uint16_t kNack = 1u << 2;
inline constexpr std::uint16_t kRequest = 1u << 3;
inline constexpr std::uint16_t kAccept = 1u << 4;
inline constexpr std::uint16_t kProbe = 1u << 5;
inline constexpr std::uint16_t kDiscover = 1u << 6;
inline constexpr std::uint16_t kDiscoverReply = 1u << 7;
inline constexpr std::uint16_t kCancel = 1u << 8;
inline constexpr std::uint16_t kData = 1u << 9;
inline constexpr std::uint16_t kDataAck = 1u << 10;
inline constexpr std::uint16_t kConnOpen = 1u << 11;
}  // namespace frame_section

/// Extra scalar attached to some events (retransmit backoff delay in us,
/// request arg, ...). Monostate means "no detail".
using TraceDetail = std::variant<std::monostate, std::int64_t>;

/// Typed event payload. All fields optional; -1 / 0 / kNone mean "not
/// applicable". Trivially cheap to construct — no allocation.
struct TracePayload {
  int peer = -1;               // other node involved, -1 = n/a
  std::int32_t tid = -1;       // transaction id, -1 = n/a
  std::int32_t pattern = -1;   // advertised pattern, -1 = n/a
  std::int32_t size = -1;      // payload/frame size in bytes, -1 = n/a
  std::uint16_t sections = 0;  // frame_section bits for packet events
  TraceStatus status = TraceStatus::kNone;
  TraceDetail detail{};

  TracePayload& with_peer(int p) { peer = p; return *this; }
  TracePayload& with_tid(std::int32_t t) { tid = t; return *this; }
  TracePayload& with_status(TraceStatus s) { status = s; return *this; }
  TracePayload& with_detail(std::int64_t d) { detail = d; return *this; }

  std::int64_t detail_i64(std::int64_t fallback = 0) const {
    if (const auto* v = std::get_if<std::int64_t>(&detail)) return *v;
    return fallback;
  }

  bool operator==(const TracePayload&) const = default;
};

struct TraceEvent : TracePayload {
  Time at = 0;
  TraceCategory category = TraceCategory::kOther;
  int node = -1;  // MID of the node the event happened on, -1 = n/a

  bool operator==(const TraceEvent&) const = default;
};

/// Human-readable one-liner, e.g. `retransmit n2 tid=7 peer=3 timeout`.
/// Cold path only — tools and debug dumps.
std::string describe(const TraceEvent& e);

/// One JSONL row: `{"kind":"trace","at":...,"cat":"...","node":N,...}`.
/// Defaulted fields are omitted. Implemented in trace.cc on top of
/// stats::JsonObject.
std::string to_json(const TraceEvent& e);

/// Inverse of to_json(). Returns nullopt on malformed input or unknown
/// category/status names.
std::optional<TraceEvent> trace_event_from_json(std::string_view line);

/// Observer invoked synchronously for every recorded event. The chaos
/// invariant checkers subscribe here so they can assert properties online
/// without retaining the whole event vector.
using TraceObserver = std::function<void(const TraceEvent&)>;

/// Collects trace events. Collection is opt-in per category set so that the
/// hot path stays cheap when tracing is off. Per-category (and per
/// category+node) counts are maintained incrementally, so count() is O(1)
/// no matter how many events have been recorded.
class Trace {
 public:
  void enable_all() { mask_ = ~0ull; }
  void enable(TraceCategory c) { mask_ |= bit(c); }
  void disable_all() { mask_ = 0; }
  bool enabled(TraceCategory c) const { return (mask_ & bit(c)) != 0; }

  /// Install (or clear, with nullptr) the event observer.
  void set_observer(TraceObserver observer) { observer_ = std::move(observer); }

  /// Whether recorded events are retained in events(). Long chaos sweeps
  /// turn retention off and rely on the observer + counters instead.
  void set_store(bool store) { store_ = store; }

  /// Redirect record() calls into `buffer` (nullptr to restore the normal
  /// path). The partitioned epoch-2 executor points the trace at the
  /// executing partition's window buffer, so recording during a window
  /// never reaches the observer/retention/counter state; the barrier
  /// replays the merged window through commit() in the canonical (time,
  /// partition) order.
  void set_buffer(std::vector<TraceEvent>* buffer) { buffer_ = buffer; }

  /// Deliver one already-built event through the normal sink path
  /// (observer, retention, counters). Used by the window barrier; record()
  /// is equivalent to building the event and committing it when no
  /// buffer is installed.
  void commit(const TraceEvent& e) {
    if (observer_) observer_(e);
    if (store_) events_.push_back(e);
    bump_counts(e.category, e.node);
  }

  void record(Time at, TraceCategory c, int node,
              const TracePayload& payload = {}) {
    if (!enabled(c)) return;
    TraceEvent e;
    static_cast<TracePayload&>(e) = payload;
    e.at = at;
    e.category = c;
    e.node = node;
    if (buffer_ != nullptr) {
      buffer_->push_back(e);
      return;
    }
    if (observer_) observer_(e);
    if (store_) events_.push_back(e);
    bump_counts(c, node);
  }

  const std::vector<TraceEvent>& events() const { return events_; }

  void clear() {
    events_.clear();
    totals_ = {};
    node_counts_dense_.clear();
    node_counts_.clear();
  }

  /// Count events in a category, optionally filtered by node. O(1).
  std::size_t count(TraceCategory c, int node = -1) const {
    if (node < 0) return totals_[static_cast<std::size_t>(c)];
    const int row = node + 1;
    if (row >= 0 && row < kDenseNodeRows) {
      auto idx = static_cast<std::size_t>(row) * kNumTraceCategories +
                 static_cast<std::size_t>(c);
      return idx < node_counts_dense_.size() ? node_counts_dense_[idx] : 0;
    }
    auto it = node_counts_.find(node_key(c, node));
    return it == node_counts_.end() ? 0 : it->second;
  }

 private:
  void bump_counts(TraceCategory c, int node) {
    ++totals_[static_cast<std::size_t>(c)];
    // Per-(category, node) counts live in a dense array indexed by node id
    // (node -1 maps to row 0); arbitrary ids fall back to the map. This is
    // once-per-event — a hash-map increment here shows up in profiles.
    const int row = node + 1;
    if (row >= 0 && row < kDenseNodeRows) {
      auto idx = static_cast<std::size_t>(row) * kNumTraceCategories +
                 static_cast<std::size_t>(c);
      if (idx >= node_counts_dense_.size()) {
        node_counts_dense_.resize((static_cast<std::size_t>(row) + 1) *
                                  kNumTraceCategories);
      }
      ++node_counts_dense_[idx];
    } else {
      ++node_counts_[node_key(c, node)];
    }
  }

  static constexpr std::uint64_t bit(TraceCategory c) {
    return 1ull << static_cast<unsigned>(c);
  }
  static constexpr std::uint64_t node_key(TraceCategory c, int node) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(node))
            << 8) |
           static_cast<std::uint64_t>(c);
  }
  /// Nodes with ids below this threshold use the dense count array.
  static constexpr int kDenseNodeRows = 4096;

  std::uint64_t mask_ = 0;
  bool store_ = true;
  TraceObserver observer_;
  std::vector<TraceEvent>* buffer_ = nullptr;  // set_buffer target
  std::vector<TraceEvent> events_;
  std::array<std::size_t, kNumTraceCategories> totals_{};
  std::vector<std::size_t> node_counts_dense_;  // [(node+1) * ncat + cat]
  std::unordered_map<std::uint64_t, std::size_t> node_counts_;  // odd ids
};

}  // namespace soda::sim
