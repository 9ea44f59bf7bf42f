// The SODA kernel (chapter 3): ten primitives, handler management, naming,
// process control, and crash semantics, layered on the reliable transport.
//
// One Kernel instance models the node's SODA (co)processor. The attached
// client calls the primitive methods; the KernelHost interface (implemented
// by Node) lets the kernel start, interrupt and kill the client program.
#pragma once

#include <array>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <unordered_set>
#include <vector>

#include "core/config.h"
#include "core/types.h"
#include "proto/transport.h"
#include "sim/coro.h"
#include "sim/simulator.h"

namespace soda {

/// Services the kernel needs from the node hosting it.
class KernelHost {
 public:
  virtual ~KernelHost() = default;
  /// Load and start a client from a core image (invokes its boot handler).
  virtual void boot_client(const Bytes& core_image, Mid parent) = 0;
  /// Destroy the running client (kill / DIE).
  virtual void kill_client() = 0;
  virtual bool has_client() const = 0;
  /// Run the client handler (the kernel has already charged the context
  /// switch and marked the handler BUSY).
  virtual void invoke_handler(const HandlerArgs& args) = 0;
  /// Resume client-task continuations deferred while the handler ran.
  virtual void drain_client_deferred() = 0;
};

class Kernel {
 public:
  // Well-known reserved patterns (§3.5.3–§3.5.4). BOOT and KILL can be
  // changed at run time by MID 0 through the SYSTEM pattern.
  static constexpr Pattern kKillPattern = kReservedBit | kWellKnownBit | 0x01;
  static constexpr Pattern kDefaultBootPattern =
      kReservedBit | kWellKnownBit | 0x02;
  static constexpr Pattern kSystemPattern = kReservedBit | kWellKnownBit | 0x03;

  // SYSTEM request arguments (§3.5.4).
  static constexpr std::int32_t kSystemAddBoot = 1;
  static constexpr std::int32_t kSystemDeleteBoot = 2;
  static constexpr std::int32_t kSystemReplaceKill = 3;

  Kernel(sim::Simulator& sim, net::Bus& bus, Mid mid, NodeConfig config,
         UniqueIdSource& uids, NodeCpu& cpu, KernelHost& host);

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  Mid mid() const { return mid_; }
  const NodeConfig& config() const { return config_; }
  NodeCpu& cpu() { return cpu_; }
  proto::Transport& transport() { return transport_; }

  // ------------------------------------------------------------------
  // Primitive 4: REQUEST (§3.3.1). Non-blocking. Returns the TID, or
  // nullopt when MAXREQUESTS are already uncompleted (the kernel ignores
  // the request; counting is the client's responsibility, §3.7.4).
  // `server.mid == kBroadcastMid` performs a DISCOVER (§3.4.4): matching
  // MIDs are written into `get_into` as 32-bit little-endian integers.
  struct RequestParams {
    ServerSignature server;
    std::int32_t arg = 0;
    Bytes put_data{};            // requester -> server payload
    std::uint32_t get_size = 0;  // bytes wanted back
    Bytes* get_into = nullptr;   // client buffer for the reply data

    // Fluent builders mirroring the paper's SIGNAL/PUT/GET/EXCHANGE
    // taxonomy (§4.1.1). Prefer these over brace-initialization — field
    // order stops mattering and call sites read like the primitives.
    static RequestParams signal(ServerSignature s, std::int32_t arg = 0) {
      return {s, arg, {}, 0, nullptr};
    }
    static RequestParams put(ServerSignature s, Bytes data,
                             std::int32_t arg = 0) {
      return {s, arg, std::move(data), 0, nullptr};
    }
    static RequestParams get(ServerSignature s, std::uint32_t get_size,
                             Bytes* into, std::int32_t arg = 0) {
      return {s, arg, {}, get_size, into};
    }
    static RequestParams exchange(ServerSignature s, Bytes out,
                                  std::uint32_t get_size, Bytes* in,
                                  std::int32_t arg = 0) {
      return {s, arg, std::move(out), get_size, in};
    }
    /// Broadcast DISCOVER (§3.4.4): matching MIDs land in `into`.
    static RequestParams discover(Pattern pattern, std::uint32_t get_size,
                                  Bytes* into) {
      return {ServerSignature{net::kBroadcastMid, pattern}, 0, {}, get_size,
              into};
    }
  };
  std::optional<Tid> request(RequestParams params);

  // Primitive 5: ACCEPT (§3.3.2). Blocking (bounded). Completes the named
  // request, exchanging data both ways.
  struct AcceptParams {
    RequesterSignature requester;
    std::int32_t arg = 0;
    Bytes* take_into = nullptr;      // server buffer for requester's data
    std::uint32_t max_take = 0;      // capacity of that buffer
    Bytes reply_data{};              // server -> requester payload

    // Fluent builders matching the ACCEPT variants (§4.1.1).
    static AcceptParams signal(RequesterSignature rs, std::int32_t arg = 0) {
      return {rs, arg, nullptr, 0, {}};
    }
    static AcceptParams take(RequesterSignature rs, Bytes* into,
                             std::uint32_t max_take, std::int32_t arg = 0) {
      return {rs, arg, into, max_take, {}};
    }
    static AcceptParams reply(RequesterSignature rs, Bytes data,
                              std::int32_t arg = 0) {
      return {rs, arg, nullptr, 0, std::move(data)};
    }
    static AcceptParams exchange(RequesterSignature rs, Bytes* into,
                                 std::uint32_t max_take, Bytes data,
                                 std::int32_t arg = 0) {
      return {rs, arg, into, max_take, std::move(data)};
    }
    /// REJECT (§4.1.2): NIL buffers, argument -1.
    static AcceptParams reject(RequesterSignature rs) {
      return {rs, -1, nullptr, 0, {}};
    }
  };
  sim::Future<AcceptResult> accept(AcceptParams params);

  // Primitive 6: CANCEL (§3.3.3). Blocking (bounded). Fails whenever the
  // request completed first.
  sim::Future<CancelStatus> cancel(Tid tid);

  // Primitives 1-3: naming (§3.4).
  bool advertise(Pattern p);    // false for reserved patterns
  bool unadvertise(Pattern p);  // false for reserved / not-advertised
  Pattern get_unique_id();
  bool advertised(Pattern p) const;

  // Primitives 7-9: handler control (§3.3.4). From inside the handler,
  // open/close take effect at ENDHANDLER.
  void open();
  void close();
  /// Called by the client framework when the handler coroutine finishes.
  void endhandler();

  // Primitive 10: DIE (§3.5.1).
  void die();

  /// Invoked by the host when a client program has been installed: runs
  /// the boot handler invocation (BOOTING status, handler OPEN, §3.7.6).
  void client_booted(Mid parent);

  /// Hard failure (pulling the power cord): same kernel-state loss as DIE
  /// but modelled as initiated from outside the client.
  void crash();

  bool handler_open() const { return handler_open_; }
  bool client_dead() const;

  /// Number of uncompleted requests (so SODAL can obey MAXREQUESTS).
  int live_requests() const { return static_cast<int>(pending_.size()); }

  std::uint64_t boots() const { return boots_; }

  // ---- anycast pool directory (doc/OVERLOAD.md §4) ----
  // A REQUEST addressed to {net::kAnycastMid, pattern} is routed to one
  // member of the responding-server set this kernel has learned for the
  // pattern: seeded by DISCOVER replies, scored by BUSY-NACK shed hints,
  // decayed on successful completions. Selection is deterministic (least
  // shed score, ties broken by a rotating cursor) so traces stay a pure
  // function of the seed.

  /// Members currently known for `pattern`, sorted by MID.
  std::vector<Mid> anycast_members(Pattern pattern) const;
  /// Resolve one concrete member for an anycast request. nullopt when the
  /// directory is empty — callers seed it with a DISCOVER first. Advances
  /// the tie-break cursor, so repeated calls round-robin an idle pool.
  std::optional<Mid> anycast_pick(Pattern pattern);

  /// Admission watermarks actually in force (fixed config values, or the
  /// EWMA-derived ones under config.adaptive_admission).
  std::size_t effective_backlog_watermark() const;
  int effective_offer_watermark() const;

 private:
  struct PendingRequest {
    Tid tid = kNoTid;
    ServerSignature server;
    std::int32_t arg = 0;
    Bytes put_data;  // retained: may have to be re-sent as a DATA frame
    std::uint32_t get_size = 0;
    Bytes* get_into = nullptr;

    enum class Phase { kInTransport, kDelivered, kDone } phase =
        Phase::kInTransport;

    sim::Time issued_at = 0;  // feeds the request-latency histogram

    // completion assembly
    std::optional<net::AcceptSection> accept_info;
    bool late_put_sent = false;
    bool late_put_acked = false;
    // late DATA travels as a self-reliable control frame
    sim::EventId data_timer = 0;
    bool data_timer_armed = false;
    int data_attempts = 0;

    // DISCOVER
    bool discover = false;
    std::vector<Mid> discovered;

    // probing (§3.6.2)
    bool probe_active = false;     // enrolled on the probe wheel
    sim::Time next_probe_at = 0;   // wheel deadline for this request
    bool awaiting_probe_reply = false;
    bool probe_reply_seen = false;
    int probe_misses = 0;

    // cancel
    bool cancel_requested = false;  // waiting for delivery ack to send it
    bool cancel_sent = false;
    std::optional<sim::Promise<CancelStatus>> cancel_promise;
  };

  struct DeliveredRequest {
    RequesterSignature requester;
    Pattern pattern = 0;
    std::int32_t arg = 0;
    std::uint32_t put_size = 0;
    std::uint32_t get_size = 0;
    bool data_present = false;
    Bytes data;
    bool accepting = false;  // an ACCEPT for it is in progress
    sim::Time delivered_at = 0;  // feeds the adaptive-admission EWMA
  };

  struct OngoingAccept {
    std::optional<sim::Promise<AcceptResult>> promise;  // client ACCEPTs
    // Kernel-internal ACCEPTs (the boot protocol's core-image PUT) take
    // their data through this callback instead of `take_into`:
    std::function<void(const Bytes&)> kernel_on_data;
    RequesterSignature requester;
    Bytes* take_into = nullptr;
    std::uint32_t max_take = 0;
    bool frame_acked = false;
    bool waiting_put_data = false;
    AcceptResult result;
    sim::Time issued_at = 0;  // feeds the accept-wait histogram
  };

  using ServerKey = std::pair<Mid, Tid>;

  // transport callbacks
  proto::DispositionResult classify(const net::Frame& f);
  /// Admission control: account one incoming REQUEST offer and return the
  /// shed hint for the current offer-rate window (0 = no overload).
  std::uint8_t note_offer_pressure();
  void deliver(const net::Frame& f);
  void on_acked(Mid peer, const net::Frame& sent);
  void on_failed(Mid peer, const net::Frame& sent, net::NackReason reason);
  void on_busy(Mid peer, const net::Frame& sent, std::uint8_t hint);

  // anycast directory bookkeeping (no-ops for unknown patterns/members).
  // `hops` is the relay distance the seeding DISCOVER reply travelled; a
  // first sighting starts at hops * config_.anycast_hop_bias shed score.
  void anycast_note_member(Pattern pattern, Mid server,
                           std::uint8_t hops = 0);
  void anycast_note_shed(Pattern pattern, Mid server, std::uint8_t hint);
  void anycast_note_result(Pattern pattern, Mid server,
                           CompletionStatus status);

  // adaptive admission (config_.adaptive_admission)
  void note_service_sample(sim::Duration d);

  // requester side
  void fail_request(PendingRequest& p, CompletionStatus status);
  void handle_accept_info(const net::Frame& f);
  void maybe_complete(Tid tid);
  void complete_request(PendingRequest& p, CompletionStatus status,
                        std::int32_t arg, std::uint32_t put_done,
                        std::uint32_t get_done);
  void start_probing(Tid tid);
  void stop_probing(PendingRequest& p);
  void probe_tick(Tid tid);
  void probe_wheel_schedule(sim::Time at);
  void probe_wheel_fire();
  void send_late_data(PendingRequest& p);
  void stop_data_timer(PendingRequest& p);
  void send_cancel_query(PendingRequest& p);
  void finish_discover(Tid tid);

  // server side
  void on_request_delivered(const net::Frame& f);
  void dispatch_arrival(const net::Frame& f);
  bool handler_available_for_arrival() const;
  void handle_late_data(const net::Frame& f);
  void finish_accept(ServerKey key, OngoingAccept& oa);
  void arm_accept_data_deadline(ServerKey key);

  // handler management
  void post_completion(HandlerArgs args);
  void try_dispatch();
  void set_held_frame(const net::Frame& f);
  void clear_held_frame();

  // kernel-served (reserved) patterns (§3.5)
  bool reserved_bound(Pattern p) const;
  void serve_reserved(const net::Frame& f);
  void respond_kernel_accept(const net::Frame& f, std::int32_t arg,
                             Bytes reply_data);
  void arm_load_deadline();
  void reset_for_death(bool client_initiated);

  sim::Simulator& sim_;
  NodeConfig config_;
  Mid mid_;
  UniqueIdSource& uids_;
  NodeCpu& cpu_;
  KernelHost& host_;
  stats::MetricsRegistry& metrics_;  // this node's registry
  proto::Transport transport_;

  // naming
  std::unordered_set<Pattern> client_patterns_;
  // §5.4 indexed table (config_.indexed_pattern_table): slot = low 8 bits
  std::array<Pattern, 256> indexed_table_{};
  std::array<bool, 256> indexed_used_{};
  bool pattern_bound(Pattern p) const;
  std::set<Pattern> boot_patterns_;
  Pattern kill_pattern_ = kKillPattern;
  Pattern load_pattern_ = 0;  // 0 = none
  sim::Time load_started_at_ = 0;  // last load-sequence activity
  bool boot_eligible_ = false;

  // handler state
  bool handler_open_ = true;
  bool handler_busy_ = false;
  bool open_change_pending_ = false;
  bool pending_open_value_ = true;
  std::deque<HandlerArgs> completions_;

  // pipelined input buffer (§5.2.3)
  std::optional<net::Frame> held_frame_;
  sim::EventId hold_timer_ = 0;
  bool hold_timer_armed_ = false;

  // requester state
  std::map<Tid, PendingRequest> pending_;
  // Probe wheel: every pending request's probe deadline multiplexes onto
  // one armed timer at the earliest of them; firing scans pending_
  // (bounded by MAXREQUESTS) instead of each request arming/cancelling
  // its own event.
  sim::EventId probe_wheel_timer_ = 0;
  bool probe_wheel_armed_ = false;
  sim::Time probe_wheel_at_ = 0;
  std::vector<Tid> probe_due_scratch_;  // reused by probe_wheel_fire
  Tid next_tid_ = 1;      // monotone across reboots (§5.4)
  Tid boot_min_tid_ = 1;  // TIDs below this predate the current incarnation

  // anycast pool directory (requester side, doc/OVERLOAD.md §4)
  struct AnycastPool {
    std::vector<Mid> members;         // sorted by MID
    std::vector<std::uint32_t> shed;  // parallel shed scores
    std::size_t cursor = 0;           // rotating tie-break
  };
  std::map<Pattern, AnycastPool> anycast_;

  // server state
  std::map<ServerKey, DeliveredRequest> delivered_;
  // admission-control offer-rate window (classify-side, doc/OVERLOAD.md)
  sim::Time admit_window_start_ = 0;
  int admit_offers_ = 0;
  // adaptive-admission EWMAs (alpha = 1/8): per-accept service time and
  // per-window offered load. Zero until the first sample.
  sim::Duration ewma_service_ = 0;
  int ewma_offers_ = 0;
  std::map<ServerKey, OngoingAccept> accepts_;
  std::deque<ServerKey> completed_lru_;  // recently finished (stale ACCEPTs)

  // booting
  Bytes core_image_;
  std::uint64_t boots_ = 0;
  std::uint64_t death_epoch_ = 0;

  bool is_recently_completed(ServerKey k) const;
  void note_completed(ServerKey k);
};

}  // namespace soda
