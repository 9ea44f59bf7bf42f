#include "core/kernel.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

namespace soda {

using net::Frame;
using sim::TraceCategory;

namespace {

Bytes pattern_to_bytes(Pattern p) {
  Bytes b(8);
  for (int i = 0; i < 8; ++i) {
    b[i] = static_cast<std::byte>((p >> (8 * i)) & 0xFF);
  }
  return b;
}

Pattern pattern_from_bytes(const Bytes& b) {
  Pattern p = 0;
  for (std::size_t i = 0; i < 8 && i < b.size(); ++i) {
    p |= static_cast<Pattern>(std::to_integer<std::uint8_t>(b[i])) << (8 * i);
  }
  return p & kPatternMask;
}

}  // namespace

Kernel::Kernel(sim::Simulator& sim, net::Bus& bus, Mid mid, NodeConfig config,
               UniqueIdSource& uids, NodeCpu& cpu, KernelHost& host)
    : sim_(sim),
      config_(std::move(config)),
      mid_(mid),
      uids_(uids),
      cpu_(cpu),
      host_(host),
      metrics_(sim.metrics().node(mid)),
      transport_(
          sim, bus, mid, config_.timing, cpu,
          proto::TransportCallbacks{
              [this](const Frame& f) { return classify(f); },
              [this](const Frame& f) { deliver(f); },
              [this](Mid peer, const Frame& sent) { on_acked(peer, sent); },
              [this](Mid peer, const Frame& sent, net::NackReason reason) {
                on_failed(peer, sent, reason);
              },
              [this](Mid peer, const Frame& sent, std::uint8_t hint) {
                on_busy(peer, sent, hint);
              }}) {
  boot_patterns_.insert(kDefaultBootPattern);
  if (config_.initial_tid > 1) {
    next_tid_ = config_.initial_tid;
    boot_min_tid_ = config_.initial_tid;
  }
  if (config_.nic_pattern_filter) {
    // The predicate reads live kernel state, so advertise/unadvertise and
    // client death are reflected without re-registering.
    bus.set_interest_filter(mid_, [this](const Frame& f) {
      if (!f.discover || f.discover->is_reply) return true;
      const Pattern p = f.discover->pattern & kPatternMask;
      return (host_.has_client() && pattern_bound(p)) || reserved_bound(p);
    });
  }
}

bool Kernel::client_dead() const { return !host_.has_client(); }

// ===================================================================
// Naming primitives (§3.4)

bool Kernel::advertise(Pattern p) {
  cpu_.charge(config_.timing.client_trap, CostCategory::kClientOverhead);
  if (net::is_reserved_pattern(p)) return false;
  p &= kPatternMask;
  if (config_.indexed_pattern_table) {
    // §5.4: the low 8 bits index a 256-entry array; a colliding advertise
    // overwrites the previous occupant — the 1984 artefact, reproduced.
    const auto slot = static_cast<std::size_t>(p & 0xFF);
    indexed_table_[slot] = p;
    indexed_used_[slot] = true;
    return true;
  }
  client_patterns_.insert(p);
  return true;
}

bool Kernel::unadvertise(Pattern p) {
  cpu_.charge(config_.timing.client_trap, CostCategory::kClientOverhead);
  if (net::is_reserved_pattern(p)) return false;
  p &= kPatternMask;
  if (config_.indexed_pattern_table) {
    const auto slot = static_cast<std::size_t>(p & 0xFF);
    if (!indexed_used_[slot] || indexed_table_[slot] != p) return false;
    indexed_used_[slot] = false;
    return true;
  }
  return client_patterns_.erase(p) > 0;
}

bool Kernel::pattern_bound(Pattern p) const {
  p &= kPatternMask;
  if (config_.indexed_pattern_table) {
    const auto slot = static_cast<std::size_t>(p & 0xFF);
    return indexed_used_[slot] && indexed_table_[slot] == p;
  }
  return client_patterns_.count(p) > 0;
}

bool Kernel::advertised(Pattern p) const { return pattern_bound(p); }

Pattern Kernel::get_unique_id() {
  cpu_.charge(config_.timing.client_trap, CostCategory::kClientOverhead);
  Pattern p = uids_.next(mid_);
  if (config_.randomized_unique_ids) {
    // §6.15: GETUNIQUEID returns fewer than PATTERNSIZE bits, so a random
    // component can ride above the serial/counter pair, keeping patterns
    // unique but hard to guess.
    const Pattern random_bits = sim_.rng().next_below(1u << 6);
    p |= (random_bits << 40);
    p &= ~(kReservedBit | kWellKnownBit) & kPatternMask;
  }
  return p;
}

// ===================================================================
// REQUEST (§3.3.1)

std::optional<Tid> Kernel::request(RequestParams params) {
  cpu_.charge(config_.timing.client_trap, CostCategory::kClientOverhead);
  if (live_requests() >= config_.max_requests) {
    // "If MAXREQUESTS remain uncompleted, a REQUEST is ignored by the
    // kernel" (§3.7.4).
    return std::nullopt;
  }
  if (params.put_data.size() > config_.max_message_bytes ||
      params.get_size > config_.max_message_bytes) {
    return std::nullopt;
  }

  bool anycast_unresolved = false;
  if (params.server.mid == net::kAnycastMid) {
    // Anycast (doc/OVERLOAD.md §4): pick the least-shed pool member for
    // this pattern. Resolution happens before the trace record so the
    // traced peer is the concrete server chosen.
    if (auto m = anycast_pick(params.server.pattern & kPatternMask)) {
      params.server.mid = *m;
    } else {
      anycast_unresolved = true;  // empty pool: fail like unknown pattern
    }
  }

  const Tid tid = next_tid_++;
  PendingRequest p;
  p.tid = tid;
  p.server = params.server;
  p.arg = params.arg;
  p.put_data = std::move(params.put_data);
  p.get_size = params.get_size;
  p.get_into = params.get_into;
  p.issued_at = sim_.now();

  metrics_.add(stats::Counter::kRequestsIssued);
  sim_.trace().record(sim_.now(), TraceCategory::kRequestIssued, mid_,
                      sim::TracePayload{}
                          .with_peer(params.server.mid)
                          .with_tid(static_cast<std::int32_t>(tid)));

  if (params.server.mid == kBroadcastMid) {
    // DISCOVER (§3.4.4): broadcast the query, collect staggered replies
    // for a window, then complete like a GET.
    p.discover = true;
    Frame f;
    f.discover = net::DiscoverSection{params.server.pattern, tid, false};
    pending_.emplace(tid, std::move(p));
    transport_.broadcast(std::move(f));
    sim_.after(config_.timing.discover_window,
               [this, tid]() { finish_discover(tid); });
    return tid;
  }

  if (params.server.mid == mid_ || anycast_unresolved) {
    // "There is no provision for local messages" (§3.3): fail the request
    // the same way an unknown pattern would. An anycast request against an
    // empty pool (no DISCOVER reply seen yet) fails identically.
    pending_.emplace(tid, std::move(p));
    sim_.after(0, [this, tid]() {
      auto it = pending_.find(tid);
      if (it != pending_.end()) {
        fail_request(it->second, CompletionStatus::kUnadvertised);
      }
    });
    return tid;
  }

  Frame f;
  f.request = net::RequestSection{
      tid, params.server.pattern, params.arg,
      static_cast<std::uint32_t>(p.put_data.size()), p.get_size,
      /*carries_data=*/!p.put_data.empty()};
  if (!p.put_data.empty()) {
    f.data = p.put_data;  // the pending entry keeps a copy for a late DATA
    f.data_tag = net::DataTag::kRequestData;
    f.data_tid = tid;
  }
  const Mid peer = params.server.mid;
  const auto response_allowance =
      static_cast<sim::Duration>(p.get_size) *
      config_.timing.retransmit_per_byte;
  pending_.emplace(tid, std::move(p));
  transport_.send_sequenced(peer, std::move(f),
                            {.strip_data_on_retransmit = true,
                             .urgent = false,
                             .response_allowance = response_allowance});
  return tid;
}

void Kernel::finish_discover(Tid tid) {
  auto it = pending_.find(tid);
  if (it == pending_.end()) return;
  PendingRequest& p = it->second;
  const std::uint32_t room = p.get_size / 4;
  const std::uint32_t n =
      std::min<std::uint32_t>(room, static_cast<std::uint32_t>(
                                        p.discovered.size()));
  if (p.get_into) {
    p.get_into->resize(n * 4);
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t m = static_cast<std::uint32_t>(p.discovered[i]);
      (*p.get_into)[i * 4 + 0] = static_cast<std::byte>(m & 0xFF);
      (*p.get_into)[i * 4 + 1] = static_cast<std::byte>((m >> 8) & 0xFF);
      (*p.get_into)[i * 4 + 2] = static_cast<std::byte>((m >> 16) & 0xFF);
      (*p.get_into)[i * 4 + 3] = static_cast<std::byte>((m >> 24) & 0xFF);
    }
  }
  complete_request(p, CompletionStatus::kCompleted, /*arg=*/0,
                   /*put_done=*/0, /*get_done=*/n * 4);
}

// ===================================================================
// ACCEPT (§3.3.2)

sim::Future<AcceptResult> Kernel::accept(AcceptParams params) {
  cpu_.charge(config_.timing.client_trap, CostCategory::kClientOverhead);
  sim::Promise<AcceptResult> pr;
  const RequesterSignature rs = params.requester;
  metrics_.add(stats::Counter::kAcceptsIssued);
  sim_.trace().record(sim_.now(), TraceCategory::kAcceptIssued, mid_,
                      sim::TracePayload{}
                          .with_peer(rs.mid)
                          .with_tid(static_cast<std::int32_t>(rs.tid)));

  if (rs.mid == mid_ || rs.mid == kBroadcastMid || rs.tid == kNoTid) {
    pr.set(AcceptResult{AcceptStatus::kCancelled, 0, 0});
    return pr.future();
  }

  const ServerKey key{rs.mid, rs.tid};
  auto dit = delivered_.find(key);
  if (dit == delivered_.end()) {
    if (is_recently_completed(key)) {
      // Accepting an already-completed request (§3.6.1).
      pr.set(AcceptResult{AcceptStatus::kCancelled, 0, 0});
      return pr.future();
    }
    // We never received this request: offer the ACCEPT on the wire and let
    // the requester's kernel judge it (guessed signatures fail there with
    // CANCELLED / WRONG_CLIENT / CRASHED, §3.3.2 item 6).
    Frame af;
    af.accept = net::AcceptSection{rs.tid, params.arg, 0, 0, false, false};
    OngoingAccept oa;
    oa.promise = pr;
    oa.requester = rs;
    oa.issued_at = sim_.now();
    accepts_.emplace(key, std::move(oa));
    transport_.send_sequenced(rs.mid, std::move(af));
    return pr.future();
  }

  DeliveredRequest& dr = dit->second;
  if (dr.accepting) {
    pr.set(AcceptResult{AcceptStatus::kCancelled, 0, 0});
    return pr.future();
  }

  const std::uint32_t put_n = std::min(dr.put_size, params.max_take);
  const std::uint32_t get_n = std::min(
      static_cast<std::uint32_t>(params.reply_data.size()), dr.get_size);
  const bool have_data = dr.data_present;
  const bool needs_put = put_n > 0 && !have_data;

  if (have_data && put_n > 0 && params.take_into) {
    // The receive-side copy was already charged when the frame landed in
    // the input buffer; handing the bytes to the client is the same copy.
    params.take_into->assign(dr.data.begin(), dr.data.begin() + put_n);
  }

  AcceptResult result{AcceptStatus::kSuccess, have_data ? put_n : 0, get_n};

  if (!needs_put && get_n == 0 && transport_.ack_pending(rs.mid)) {
    // Fast path: the ACCEPT rides on the delayed ACK of the REQUEST —
    // the paper's two-packet PUT (§5.2.3). Reliable because a lost
    // ACCEPT+ACK is replayed when the requester retransmits.
    Frame af;
    af.accept = net::AcceptSection{rs.tid, params.arg, put_n, 0, false, false};
    transport_.send_control(rs.mid, std::move(af), /*store_as_response=*/true);
    note_service_sample(sim_.now() - dit->second.delivered_at);
    delivered_.erase(dit);
    note_completed(key);
    metrics_.add(stats::Counter::kAcceptsCompleted);
    metrics_.observe(stats::Latency::kAcceptWait, 0);
    sim_.trace().record(sim_.now(), TraceCategory::kAcceptCompleted, mid_,
                        sim::TracePayload{}
                            .with_peer(rs.mid)
                            .with_tid(static_cast<std::int32_t>(rs.tid))
                            .with_status(sim::TraceStatus::kPiggybacked));
    pr.set(result);
    return pr.future();
  }

  // Slow path: a sequenced ACCEPT frame, carrying reply data and asking
  // for a late DATA frame when the REQUEST data did not survive.
  Frame af;
  af.accept = net::AcceptSection{rs.tid, params.arg,     put_n,
                                 get_n,  needs_put,      get_n > 0};
  if (get_n > 0) {
    params.reply_data.resize(get_n);
    af.data = std::move(params.reply_data);
    af.data_tag = net::DataTag::kAcceptData;
    af.data_tid = rs.tid;
  }
  OngoingAccept oa;
  oa.promise = pr;
  oa.requester = rs;
  oa.take_into = params.take_into;
  oa.max_take = params.max_take;
  oa.waiting_put_data = needs_put;
  oa.result = result;
  oa.issued_at = sim_.now();
  dr.accepting = true;
  accepts_.emplace(key, std::move(oa));
  transport_.send_sequenced(rs.mid, std::move(af));
  if (needs_put) arm_accept_data_deadline(key);
  return pr.future();
}

void Kernel::arm_accept_data_deadline(ServerKey key) {
  // A waiting ACCEPT must not outlive the requester's willingness to
  // supply the late data: once the requester's DATA retransmission budget
  // (or its own view of this exchange) is spent it completes the request
  // as CRASHED and forgets the TID, and nothing it sends afterwards can
  // release this handler. Give the data one record lifetime plus a full
  // retransmission span to arrive, then declare the requester crashed
  // (§3.3.2: an ACCEPT fails if the requesting machine crashed).
  const sim::Duration grace =
      config_.timing.record_lifetime() + config_.timing.retransmit_span();
  const sim::Time issued = sim_.now();
  sim_.after(grace, [this, key, issued, epoch = death_epoch_]() {
    if (epoch != death_epoch_) return;
    auto it = accepts_.find(key);
    if (it == accepts_.end() || !it->second.waiting_put_data ||
        it->second.issued_at != issued) {
      return;
    }
    OngoingAccept& oa = it->second;
    AcceptResult result;
    result.status = AcceptStatus::kCrashed;
    sim_.trace().record(sim_.now(), TraceCategory::kAcceptCompleted, mid_,
                        sim::TracePayload{}
                            .with_peer(key.first)
                            .with_tid(static_cast<std::int32_t>(key.second))
                            .with_status(sim::TraceStatus::kCrashed));
    auto promise = std::move(oa.promise);
    accepts_.erase(it);
    delivered_.erase(key);
    note_completed(key);
    if (promise) promise->set(result);
  });
}

void Kernel::finish_accept(ServerKey key, OngoingAccept& oa) {
  if (!oa.frame_acked || oa.waiting_put_data) return;
  metrics_.add(stats::Counter::kAcceptsCompleted);
  metrics_.observe(stats::Latency::kAcceptWait, sim_.now() - oa.issued_at);
  sim_.trace().record(sim_.now(), TraceCategory::kAcceptCompleted, mid_,
                      sim::TracePayload{}
                          .with_peer(key.first)
                          .with_tid(static_cast<std::int32_t>(key.second))
                          .with_status(sim::TraceStatus::kCompleted));
  AcceptResult result = oa.result;
  auto promise = std::move(oa.promise);
  if (auto dit = delivered_.find(key); dit != delivered_.end()) {
    note_service_sample(sim_.now() - dit->second.delivered_at);
    delivered_.erase(dit);
  }
  note_completed(key);
  accepts_.erase(key);
  if (promise) promise->set(result);
}

void Kernel::handle_late_data(const net::Frame& f) {
  const ServerKey key{f.src, f.data_tid};
  auto it = accepts_.find(key);
  if (it != accepts_.end() && it->second.waiting_put_data) {
    OngoingAccept& oa = it->second;
    const std::uint32_t n = std::min(
        oa.max_take, static_cast<std::uint32_t>(f.data.size()));
    if (oa.take_into) {
      oa.take_into->assign(f.data.begin(), f.data.begin() + n);
    }
    if (oa.kernel_on_data) oa.kernel_on_data(f.data);
    oa.result.put_received = n;
    oa.waiting_put_data = false;
    finish_accept(key, oa);
  }
  // Acknowledge in all cases (duplicates included): the requester's
  // exchange finishes on this DATA_ACK — the paper's final "ACK (by
  // server)" packet.
  Frame ackf;
  ackf.data_ack = f.data_tid;
  transport_.send_control(f.src, std::move(ackf));
}

// ===================================================================
// CANCEL (§3.3.3)

sim::Future<CancelStatus> Kernel::cancel(Tid tid) {
  cpu_.charge(config_.timing.client_trap, CostCategory::kClientOverhead);
  sim::Promise<CancelStatus> pr;
  auto it = pending_.find(tid);
  if (it == pending_.end() || it->second.discover ||
      it->second.accept_info.has_value() ||
      it->second.cancel_promise.has_value()) {
    pr.set(CancelStatus::kFail);
    return pr.future();
  }
  PendingRequest& p = it->second;
  p.cancel_promise = pr;
  if (p.phase == PendingRequest::Phase::kDelivered) {
    send_cancel_query(p);
  } else {
    // A REQUEST is only eligible for cancellation once acknowledged
    // (§5.2.3); the query goes out when the delivery ack arrives.
    p.cancel_requested = true;
  }
  return pr.future();
}

void Kernel::send_cancel_query(PendingRequest& p) {
  p.cancel_sent = true;
  Frame f;
  f.cancel = net::CancelSection{p.tid, false, false};
  transport_.send_sequenced(p.server.mid, std::move(f));
}

// ===================================================================
// Handler control (§3.3.4)

void Kernel::open() {
  if (handler_busy_) {
    open_change_pending_ = true;
    pending_open_value_ = true;
    return;
  }
  handler_open_ = true;
  try_dispatch();
  if (!handler_busy_ && held_frame_ && handler_available_for_arrival()) {
    Frame f = *held_frame_;
    clear_held_frame();
    transport_.accept_held(f);
  }
}

void Kernel::close() {
  if (handler_busy_) {
    open_change_pending_ = true;
    pending_open_value_ = false;
    return;
  }
  handler_open_ = false;
}

void Kernel::endhandler() {
  handler_busy_ = false;
  sim_.trace().record(sim_.now(), TraceCategory::kHandlerEnded, mid_);
  if (open_change_pending_) {
    handler_open_ = pending_open_value_;
    open_change_pending_ = false;
  }
  if (config_.pipelined) {
    // The pipelined kernel's ENDHANDLER checks the input buffer for a
    // REQUEST that arrived while the handler was busy (§5.2.3).
    cpu_.charge(config_.timing.pipeline_check, CostCategory::kProtocol);
  }
  try_dispatch();
  if (!handler_busy_ && held_frame_ && handler_available_for_arrival()) {
    Frame f = *held_frame_;
    clear_held_frame();
    transport_.accept_held(f);
  }
  if (!handler_busy_) {
    host_.drain_client_deferred();
  }
}

bool Kernel::handler_available_for_arrival() const {
  // "As long as queued completion interrupts are present, the handler is
  // considered BUSY" for arrivals (§3.7.5).
  return host_.has_client() && handler_open_ && !handler_busy_ &&
         completions_.empty();
}

void Kernel::post_completion(HandlerArgs args) {
  if (!host_.has_client()) return;
  completions_.push_back(args);
  try_dispatch();
}

void Kernel::try_dispatch() {
  if (!host_.has_client()) {
    completions_.clear();
    return;
  }
  if (!handler_open_ || handler_busy_ || completions_.empty()) return;
  handler_busy_ = true;
  HandlerArgs args = completions_.front();
  completions_.pop_front();
  cpu_.run(config_.timing.context_switch, CostCategory::kContextSwitch,
           [this, args, epoch = death_epoch_]() {
             if (epoch != death_epoch_) return;
             if (!host_.has_client()) {
               handler_busy_ = false;
               return;
             }
             metrics_.add(stats::Counter::kHandlerInvocations);
             sim_.trace().record(
                 sim_.now(), TraceCategory::kHandlerInvoked, mid_,
                 sim::TracePayload{}.with_status(
                     sim::TraceStatus::kCompletion));
             host_.invoke_handler(args);
           });
}

void Kernel::set_held_frame(const net::Frame& f) {
  held_frame_ = f;
  if (hold_timer_armed_) sim_.cancel(hold_timer_);
  hold_timer_armed_ = true;
  hold_timer_ = sim_.after(
      config_.input_buffer_hold, [this, epoch = death_epoch_]() {
        if (epoch != death_epoch_) return;
        hold_timer_armed_ = false;
        if (!held_frame_) return;
        Frame f = *held_frame_;
        held_frame_.reset();
        transport_.reject_held(f);
      });
}

void Kernel::clear_held_frame() {
  held_frame_.reset();
  if (hold_timer_armed_) {
    sim_.cancel(hold_timer_);
    hold_timer_armed_ = false;
  }
}

// ===================================================================
// Process control (§3.5)

void Kernel::client_booted(Mid parent) {
  handler_open_ = true;
  handler_busy_ = true;
  HandlerArgs args;
  args.reason = HandlerReason::kBooting;
  args.parent = parent;
  cpu_.run(config_.timing.context_switch, CostCategory::kContextSwitch,
           [this, args, epoch = death_epoch_]() {
             if (epoch != death_epoch_) return;
             if (!host_.has_client()) {
               handler_busy_ = false;
               return;
             }
             metrics_.add(stats::Counter::kHandlerInvocations);
             sim_.trace().record(
                 sim_.now(), TraceCategory::kHandlerInvoked, mid_,
                 sim::TracePayload{}.with_status(sim::TraceStatus::kBooting));
             host_.invoke_handler(args);
           });
}

void Kernel::die() {
  cpu_.charge(config_.timing.client_trap, CostCategory::kClientOverhead);
  reset_for_death(/*client_initiated=*/true);
}

void Kernel::crash() { reset_for_death(/*client_initiated=*/false); }

void Kernel::reset_for_death(bool client_initiated) {
  sim_.trace().record(sim_.now(), TraceCategory::kBoot, mid_,
                      sim::TracePayload{}.with_status(
                          client_initiated ? sim::TraceStatus::kDie
                                           : sim::TraceStatus::kKilled));
  host_.kill_client();
  client_patterns_.clear();
  indexed_used_.fill(false);
  for (auto& [tid, p] : pending_) stop_probing(p);
  if (probe_wheel_armed_) {
    sim_.cancel(probe_wheel_timer_);
    probe_wheel_armed_ = false;
  }
  pending_.clear();
  completions_.clear();
  accepts_.clear();
  delivered_.clear();
  completed_lru_.clear();
  clear_held_frame();
  handler_busy_ = false;
  handler_open_ = true;
  open_change_pending_ = false;
  core_image_.clear();
  load_pattern_ = 0;
  boot_min_tid_ = next_tid_;
  ++death_epoch_;
  admit_window_start_ = 0;
  admit_offers_ = 0;
  anycast_.clear();
  ewma_service_ = 0;
  ewma_offers_ = 0;
  transport_.reset();
}

// ===================================================================
// Transport callbacks

proto::DispositionResult Kernel::classify(const net::Frame& f) {
  if (f.request) {
    const Pattern p = f.request->pattern & kPatternMask;
    const Tid tid = f.request->tid;
    if (net::is_reserved_pattern(p)) {
      // Reserved patterns are bound to kernel routines whose execution
      // "cannot be impeded by the client handler state" (§3.4.3).
      if (!reserved_bound(p)) {
        return {proto::Disposition::kError, net::NackReason::kUnadvertised,
                tid};
      }
      if (p == kSystemPattern && f.src != 0) {
        // Only machine 0 may administer reserved patterns (§3.5.4).
        return {proto::Disposition::kError, net::NackReason::kUnadvertised,
                tid};
      }
      return {proto::Disposition::kDeliver, {}, kNoTid};
    }
    if (!host_.has_client() || !pattern_bound(p)) {
      return {proto::Disposition::kError, net::NackReason::kUnadvertised, tid};
    }
    const std::uint8_t hint = note_offer_pressure();
    if (config_.admit_backlog_watermark > 0 &&
        delivered_.size() >= effective_backlog_watermark()) {
      // Admission control: the pending-accept backlog is past the
      // watermark, so shed this offer before any section processing and
      // tell the requester how hard to back off.
      metrics_.add(stats::Counter::kShedOffers);
      sim_.trace().record(sim_.now(), sim::TraceCategory::kOther, mid_,
                          sim::TracePayload{}
                              .with_peer(f.src)
                              .with_status(sim::TraceStatus::kShed)
                              .with_detail(static_cast<std::int64_t>(
                                  delivered_.size())));
      return {proto::Disposition::kBusy, {}, kNoTid,
              std::max<std::uint8_t>(hint, 1)};
    }
    if (handler_available_for_arrival() && !held_frame_) {
      return {proto::Disposition::kDeliver, {}, kNoTid};
    }
    if (config_.pipelined) {
      if (held_frame_ && held_frame_->src == f.src && held_frame_->request &&
          held_frame_->request->tid == tid) {
        return {proto::Disposition::kHold, {}, kNoTid};  // already holding it
      }
      if (!held_frame_) {
        set_held_frame(f);
        return {proto::Disposition::kHold, {}, kNoTid};
      }
    }
    if (hint > 0) metrics_.add(stats::Counter::kShedOffers);
    return {proto::Disposition::kBusy, {}, kNoTid, hint};
  }

  if (f.accept) {
    const Tid tid = f.accept->tid;
    auto it = pending_.find(tid);
    if (it == pending_.end()) {
      // Stale or forged ACCEPT (§3.6.1, §5.4): requests from before this
      // incarnation report CRASHED; completed/cancelled/forged report
      // CANCELLED.
      const net::NackReason r = (tid < boot_min_tid_)
                                    ? net::NackReason::kCrashed
                                    : net::NackReason::kCancelled;
      return {proto::Disposition::kError, r, tid};
    }
    if (it->second.server.mid != f.src) {
      // "An ACCEPT will fail if issued by a different client than that
      // named in the matching REQUEST" (§3.3.2 item 6).
      return {proto::Disposition::kError, net::NackReason::kWrongClient, tid};
    }
    return {proto::Disposition::kDeliver, {}, kNoTid};
  }

  // Late DATA frames and CANCEL queries are kernel-level: always deliver.
  return {proto::Disposition::kDeliver, {}, kNoTid};
}

std::uint8_t Kernel::note_offer_pressure() {
  if (config_.admit_offer_watermark <= 0) return 0;
  // The window is eight busy-retry intervals so it scales with the timing
  // preset (40 ms calibrated, 400 us fast) and with injected timer skew.
  const sim::Duration window = 8 * config_.timing.busy_retry_interval;
  if (window <= 0) return 0;
  if (sim_.now() - admit_window_start_ >= window) {
    if (config_.adaptive_admission) {
      // Fold the closing window's offered load into the EWMA before the
      // counter resets (doc/OVERLOAD.md §3.2, alpha = 1/8).
      if (ewma_offers_ == 0) {
        ewma_offers_ = admit_offers_;
      } else {
        int delta = (admit_offers_ - ewma_offers_) / 8;
        if (delta == 0 && admit_offers_ != ewma_offers_) {
          delta = admit_offers_ > ewma_offers_ ? 1 : -1;
        }
        ewma_offers_ += delta;
      }
    }
    admit_window_start_ = sim_.now();
    admit_offers_ = 0;
  }
  ++admit_offers_;
  const int watermark = effective_offer_watermark();
  const int level = admit_offers_ / watermark;
  std::uint8_t hint = static_cast<std::uint8_t>(std::min(level, 3));
  if (config_.adaptive_admission && hint == 0 && ewma_offers_ >= watermark) {
    // Sustained pressure remembered from earlier windows keeps a floor
    // under the hint even right after the counter reset.
    hint = 1;
  }
  return hint;
}

std::size_t Kernel::effective_backlog_watermark() const {
  if (!config_.adaptive_admission || ewma_service_ <= 0) {
    return config_.admit_backlog_watermark;
  }
  // Capacity per admission window: how many accepts this node completed
  // per window at the measured service rate. Clamped so a pathological
  // sample can neither close admission entirely nor disable shedding.
  const sim::Duration window = 8 * config_.timing.busy_retry_interval;
  const sim::Duration capacity =
      window / std::max<sim::Duration>(ewma_service_, 1);
  return static_cast<std::size_t>(
      std::clamp<sim::Duration>(capacity, 2, 64));
}

int Kernel::effective_offer_watermark() const {
  if (!config_.adaptive_admission || ewma_service_ <= 0) {
    return config_.admit_offer_watermark;
  }
  const sim::Duration window = 8 * config_.timing.busy_retry_interval;
  const sim::Duration capacity =
      window / std::max<sim::Duration>(ewma_service_, 1);
  return static_cast<int>(std::clamp<sim::Duration>(2 * capacity, 8, 512));
}

void Kernel::note_service_sample(sim::Duration d) {
  if (!config_.adaptive_admission || d < 0) return;
  if (ewma_service_ <= 0) {
    ewma_service_ = d;
    return;
  }
  sim::Duration delta = (d - ewma_service_) / 8;
  if (delta == 0 && d != ewma_service_) {
    // Integer division must not stick the EWMA short of a small target.
    delta = d > ewma_service_ ? 1 : -1;
  }
  ewma_service_ += delta;
}

// ===================================================================
// Anycast pool directory (doc/OVERLOAD.md §4)
//
// The directory is observational state: DISCOVER replies add members,
// BUSY-NACK shed hints and completion outcomes adjust per-member shed
// scores. It never touches timers, the RNG, or the trace, so seeding it
// cannot perturb trace hashes of workloads that never issue an anycast
// request.

namespace {
constexpr std::uint32_t kShedScoreCap = 1024;
}  // namespace

std::vector<Mid> Kernel::anycast_members(Pattern pattern) const {
  auto it = anycast_.find(pattern & kPatternMask);
  if (it == anycast_.end()) return {};
  return it->second.members;
}

std::optional<Mid> Kernel::anycast_pick(Pattern pattern) {
  auto it = anycast_.find(pattern & kPatternMask);
  if (it == anycast_.end() || it->second.members.empty()) return std::nullopt;
  AnycastPool& pool = it->second;
  const std::size_t n = pool.members.size();
  // Scan starting one past the previous pick so equal-score members are
  // visited round-robin; the first strictly-smaller score wins outright.
  std::size_t best = (pool.cursor + 1) % n;
  for (std::size_t step = 1; step < n; ++step) {
    const std::size_t i = (pool.cursor + 1 + step) % n;
    if (pool.shed[i] < pool.shed[best]) best = i;
  }
  pool.cursor = best;
  return pool.members[best];
}

void Kernel::anycast_note_member(Pattern pattern, Mid server,
                                 std::uint8_t hops) {
  if (server < 0 || server == mid_) return;  // never pool ourselves (§3.3)
  AnycastPool& pool = anycast_[pattern & kPatternMask];
  auto it = std::lower_bound(pool.members.begin(), pool.members.end(), server);
  if (it != pool.members.end() && *it == server) return;
  const auto idx = static_cast<std::size_t>(it - pool.members.begin());
  // Remote members start handicapped by their relay distance so the
  // least-shed pick keeps traffic on-segment until local members are
  // genuinely more loaded (doc/INTERNET.md). Local replies have hops 0.
  const std::uint32_t seed_score = std::min<std::uint32_t>(
      static_cast<std::uint32_t>(hops) * config_.anycast_hop_bias,
      kShedScoreCap);
  pool.members.insert(it, server);
  pool.shed.insert(pool.shed.begin() + static_cast<std::ptrdiff_t>(idx),
                   seed_score);
}

void Kernel::anycast_note_shed(Pattern pattern, Mid server,
                               std::uint8_t hint) {
  auto it = anycast_.find(pattern & kPatternMask);
  if (it == anycast_.end()) return;
  AnycastPool& pool = it->second;
  auto mit = std::lower_bound(pool.members.begin(), pool.members.end(),
                              server);
  if (mit == pool.members.end() || *mit != server) return;
  const auto idx = static_cast<std::size_t>(mit - pool.members.begin());
  pool.shed[idx] = std::min<std::uint32_t>(
      pool.shed[idx] + 1 + hint, kShedScoreCap);
}

void Kernel::anycast_note_result(Pattern pattern, Mid server,
                                 CompletionStatus status) {
  auto it = anycast_.find(pattern & kPatternMask);
  if (it == anycast_.end()) return;
  AnycastPool& pool = it->second;
  auto mit = std::lower_bound(pool.members.begin(), pool.members.end(),
                              server);
  if (mit == pool.members.end() || *mit != server) return;
  const auto idx = static_cast<std::size_t>(mit - pool.members.begin());
  switch (status) {
    case CompletionStatus::kCompleted:
      pool.shed[idx] /= 2;  // success decays accumulated pressure quickly
      break;
    case CompletionStatus::kCrashed:
      // Drop the member; the next DISCOVER after its reboot re-seeds it.
      pool.members.erase(mit);
      pool.shed.erase(pool.shed.begin() + static_cast<std::ptrdiff_t>(idx));
      if (pool.cursor >= pool.members.size()) pool.cursor = 0;
      break;
    case CompletionStatus::kTimedOut:
      pool.shed[idx] =
          std::min<std::uint32_t>(pool.shed[idx] + 16, kShedScoreCap);
      break;
    default:
      break;  // cancel / unadvertised say nothing about the member's load
  }
}

void Kernel::on_busy(Mid peer, const net::Frame& sent, std::uint8_t hint) {
  if (!sent.request) return;  // only REQUEST offers feed pool shed scores
  anycast_note_shed(sent.request->pattern & kPatternMask, peer, hint);
}

void Kernel::deliver(const net::Frame& f) {
  if (f.discover) {
    const auto& d = *f.discover;
    if (!d.is_reply) {
      const Pattern p = d.pattern & kPatternMask;
      const bool match = (host_.has_client() && pattern_bound(p)) ||
                         reserved_bound(p);
      if (match) {
        // Stagger replies by MID so they do not collide on the bus (§5.3).
        const sim::Duration delay =
            config_.timing.discover_stagger * (mid_ + 1);
        sim_.after(delay, [this, d, peer = f.src,
                           epoch = death_epoch_]() {
          if (epoch != death_epoch_) return;
          Frame rf;
          rf.discover = net::DiscoverSection{d.pattern, d.tid, true};
          transport_.send_control(peer, std::move(rf));
        });
      }
    } else {
      // Every DISCOVER reply seeds the anycast directory for its pattern,
      // even when the originating request already completed: a reply is
      // positive evidence that `src` serves the pattern right now.
      anycast_note_member(d.pattern & kPatternMask, f.src, f.hops);
      auto it = pending_.find(d.tid);
      if (it != pending_.end() && it->second.discover) {
        auto& mids = it->second.discovered;
        if (std::find(mids.begin(), mids.end(), f.src) == mids.end()) {
          mids.push_back(f.src);
        }
      }
    }
    return;  // DISCOVER frames carry nothing else
  }

  if (f.probe) {
    const auto& pb = *f.probe;
    if (!pb.is_reply) {
      const ServerKey key{f.src, pb.tid};
      const bool known = delivered_.count(key) > 0 ||
                         accepts_.count(key) > 0 ||
                         is_recently_completed(key);
      Frame rf;
      rf.probe = net::ProbeSection{pb.tid, true, known};
      transport_.send_control(f.src, std::move(rf));
      metrics_.add(stats::Counter::kProbeRepliesSent);
      sim_.trace().record(sim_.now(), TraceCategory::kProbe, mid_,
                          sim::TracePayload{}
                              .with_peer(f.src)
                              .with_tid(static_cast<std::int32_t>(pb.tid))
                              .with_status(known
                                               ? sim::TraceStatus::kReplyKnown
                                               : sim::TraceStatus::kReplyUnknown));
    } else {
      auto it = pending_.find(pb.tid);
      if (it != pending_.end()) {
        PendingRequest& p = it->second;
        p.probe_reply_seen = true;
        p.probe_misses = 0;
        if (!pb.known) {
          // The server rebooted and lost the request: it cannot escape
          // detection (§3.6.2).
          metrics_.add(stats::Counter::kCrashesDetected);
          fail_request(p, CompletionStatus::kCrashed);
        }
      }
    }
  }

  if (f.cancel) {
    const auto& c = *f.cancel;
    if (!c.is_reply) {
      const ServerKey key{f.src, c.tid};
      auto it = delivered_.find(key);
      bool ok = false;
      if (it != delivered_.end() && !it->second.accepting) {
        delivered_.erase(it);
        note_completed(key);
        ok = true;
      }
      Frame rf;
      rf.cancel = net::CancelSection{c.tid, true, ok};
      transport_.send_control(f.src, std::move(rf));
    } else {
      auto it = pending_.find(c.tid);
      if (it != pending_.end() && it->second.cancel_promise) {
        PendingRequest& p = it->second;
        auto promise = std::move(*p.cancel_promise);
        p.cancel_promise.reset();
        if (c.ok) {
          stop_probing(p);
          // Cancellation is the third way a REQUEST terminates; trace it
          // so invariant checkers see exactly one terminal event per tid.
          sim_.trace().record(sim_.now(), TraceCategory::kRequestCompleted,
                              mid_,
                              sim::TracePayload{}
                                  .with_peer(p.server.mid)
                                  .with_tid(static_cast<std::int32_t>(p.tid))
                                  .with_status(sim::TraceStatus::kCancelled));
          pending_.erase(it);  // no completion interrupt for a cancelled one
          promise.set(CancelStatus::kSuccess);
        } else {
          promise.set(CancelStatus::kFail);
        }
      }
    }
  }

  if (f.accept) handle_accept_info(f);
  if (f.request) on_request_delivered(f);
  if (!f.request && f.data_tag == net::DataTag::kRequestData) {
    handle_late_data(f);
  }
  if (f.data_ack != kNoTid) {
    auto it = pending_.find(f.data_ack);
    if (it != pending_.end()) {
      PendingRequest& p = it->second;
      p.late_put_acked = true;
      stop_data_timer(p);
      maybe_complete(p.tid);
    }
  }
}

void Kernel::on_acked(Mid peer, const net::Frame& sent) {
  if (sent.request) {
    auto it = pending_.find(sent.request->tid);
    if (it != pending_.end()) {
      PendingRequest& p = it->second;
      if (p.phase == PendingRequest::Phase::kInTransport) {
        p.phase = PendingRequest::Phase::kDelivered;
        start_probing(p.tid);
        if (p.cancel_requested && !p.cancel_sent) send_cancel_query(p);
      }
    }
  }
  if (sent.accept) {
    const ServerKey key{peer, sent.accept->tid};
    auto it = accepts_.find(key);
    if (it != accepts_.end()) {
      it->second.frame_acked = true;
      finish_accept(key, it->second);
    }
  }
}

void Kernel::on_failed(Mid peer, const net::Frame& sent,
                       net::NackReason reason) {
  if (sent.request) {
    auto it = pending_.find(sent.request->tid);
    if (it != pending_.end()) {
      CompletionStatus st = CompletionStatus::kCrashed;
      if (reason == net::NackReason::kUnadvertised) {
        st = CompletionStatus::kUnadvertised;
      } else if (reason == net::NackReason::kTimedOut) {
        st = CompletionStatus::kTimedOut;
      }
      fail_request(it->second, st);
    }
  }
  if (sent.accept) {
    const ServerKey key{peer, sent.accept->tid};
    auto it = accepts_.find(key);
    if (it != accepts_.end()) {
      OngoingAccept& oa = it->second;
      AcceptResult result;
      result.status = (reason == net::NackReason::kCrashed)
                          ? AcceptStatus::kCrashed
                          : AcceptStatus::kCancelled;
      sim_.trace().record(sim_.now(), TraceCategory::kAcceptCompleted, mid_,
                          sim::TracePayload{}
                              .with_peer(peer)
                              .with_tid(static_cast<std::int32_t>(
                                  sent.accept->tid))
                              .with_status(result.status ==
                                                   AcceptStatus::kCrashed
                                               ? sim::TraceStatus::kCrashed
                                               : sim::TraceStatus::kCancelled));
      auto promise = std::move(oa.promise);
      accepts_.erase(it);
      delivered_.erase(key);
      note_completed(key);
      if (promise) promise->set(result);
    }
  }
  if (sent.cancel && !sent.cancel->is_reply) {
    auto it = pending_.find(sent.cancel->tid);
    if (it != pending_.end() && it->second.cancel_promise) {
      auto promise = std::move(*it->second.cancel_promise);
      it->second.cancel_promise.reset();
      promise.set(CancelStatus::kFail);
    }
  }
}

// ===================================================================
// Requester-side completion assembly

void Kernel::handle_accept_info(const net::Frame& f) {
  auto it = pending_.find(f.accept->tid);
  if (it == pending_.end()) return;  // stale piggybacked ACCEPT
  PendingRequest& p = it->second;
  if (p.accept_info) return;  // duplicate
  if (p.server.mid != f.src) return;
  p.accept_info = *f.accept;
  stop_probing(p);

  if (f.accept->carries_data && p.get_into) {
    const std::uint32_t n = std::min(
        p.get_size, static_cast<std::uint32_t>(f.data.size()));
    p.get_into->assign(f.data.begin(), f.data.begin() + n);
  }

  if (f.accept->needs_put_data && !p.put_data.empty()) {
    // Our REQUEST data did not survive (stripped after a BUSY encounter):
    // ship it now as a DATA frame; the server's DATA_ACK completes the
    // exchange. This is the paper's DATA+ACK packet followed by the final
    // ACK (§5.2.3). The DATA frame is a control frame with its own
    // retransmission: it must not wait in the alternating-bit slot behind
    // a queued REQUEST, or the server's blocked ACCEPT deadlocks it.
    p.late_put_sent = true;
    send_late_data(p);
  } else if (f.accept->needs_put_data) {
    p.late_put_acked = true;  // nothing to send after all
  }

  maybe_complete(p.tid);
}

void Kernel::send_late_data(PendingRequest& p) {
  Bytes chunk = p.put_data;
  if (p.accept_info && chunk.size() > p.accept_info->put_transferred) {
    chunk.resize(p.accept_info->put_transferred);
  }
  Frame df;
  df.data = std::move(chunk);
  df.data_tag = net::DataTag::kRequestData;
  df.data_tid = p.tid;
  transport_.send_control(p.server.mid, std::move(df));
  ++p.data_attempts;
  if (p.data_timer_armed) sim_.cancel(p.data_timer);
  p.data_timer_armed = true;
  const sim::Duration timeout =
      config_.timing.retransmit_interval +
      static_cast<sim::Duration>(p.put_data.size()) *
          config_.timing.retransmit_per_byte;
  const Tid tid = p.tid;
  p.data_timer = sim_.after(timeout, [this, tid, epoch = death_epoch_]() {
    if (epoch != death_epoch_) return;
    auto it = pending_.find(tid);
    if (it == pending_.end()) return;
    PendingRequest& pr = it->second;
    pr.data_timer_armed = false;
    if (pr.late_put_acked) return;
    if (pr.data_attempts > config_.timing.max_ack_retries) {
      fail_request(pr, CompletionStatus::kCrashed);
      return;
    }
    metrics_.add(stats::Counter::kRetransmits);
    sim_.trace().record(sim_.now(), TraceCategory::kRetransmit, mid_,
                        sim::TracePayload{}
                            .with_tid(static_cast<std::int32_t>(tid))
                            .with_status(sim::TraceStatus::kLateData));
    send_late_data(pr);
  });
}

void Kernel::stop_data_timer(PendingRequest& p) {
  if (p.data_timer_armed) {
    sim_.cancel(p.data_timer);
    p.data_timer_armed = false;
  }
}

void Kernel::maybe_complete(Tid tid) {
  auto it = pending_.find(tid);
  if (it == pending_.end()) return;
  PendingRequest& p = it->second;
  if (!p.accept_info) return;
  if (p.accept_info->needs_put_data && p.late_put_sent && !p.late_put_acked) {
    return;
  }
  complete_request(p, CompletionStatus::kCompleted, p.accept_info->arg,
                   p.accept_info->put_transferred,
                   p.accept_info->get_transferred);
}

void Kernel::complete_request(PendingRequest& p, CompletionStatus status,
                              std::int32_t arg, std::uint32_t put_done,
                              std::uint32_t get_done) {
  stop_probing(p);
  stop_data_timer(p);
  if (p.cancel_promise) {
    auto promise = std::move(*p.cancel_promise);
    p.cancel_promise.reset();
    promise.set(CancelStatus::kFail);
  }
  HandlerArgs args;
  args.reason = HandlerReason::kRequestCompletion;
  args.asker = RequesterSignature{mid_, p.tid};
  args.arg = arg;
  args.status = status;
  args.put_size = put_done;
  args.get_size = get_done;
  metrics_.add(stats::Counter::kRequestsCompleted);
  metrics_.observe(stats::Latency::kRequestLatency, sim_.now() - p.issued_at);
  sim::TraceStatus ts = sim::TraceStatus::kCompleted;
  if (status == CompletionStatus::kCrashed) ts = sim::TraceStatus::kCrashed;
  if (status == CompletionStatus::kUnadvertised)
    ts = sim::TraceStatus::kUnadvertised;
  if (status == CompletionStatus::kTimedOut) ts = sim::TraceStatus::kTimedOut;
  sim_.trace().record(sim_.now(), TraceCategory::kRequestCompleted, mid_,
                      sim::TracePayload{}
                          .with_peer(p.server.mid)
                          .with_tid(static_cast<std::int32_t>(p.tid))
                          .with_status(ts));
  anycast_note_result(p.server.pattern & kPatternMask, p.server.mid, status);
  pending_.erase(p.tid);
  post_completion(args);
}

void Kernel::fail_request(PendingRequest& p, CompletionStatus status) {
  complete_request(p, status, 0, 0, 0);
}

// ===================================================================
// Probes (§3.6.2)

void Kernel::start_probing(Tid tid) {
  auto it = pending_.find(tid);
  if (it == pending_.end()) return;
  PendingRequest& p = it->second;
  p.probe_misses = 0;
  p.awaiting_probe_reply = false;
  p.probe_active = true;
  p.next_probe_at = sim_.now() + config_.timing.probe_interval;
  probe_wheel_schedule(p.next_probe_at);
}

void Kernel::stop_probing(PendingRequest& p) {
  p.probe_active = false;  // the wheel skips de-enrolled entries lazily
}

void Kernel::probe_wheel_schedule(sim::Time at) {
  if (probe_wheel_armed_ && probe_wheel_at_ <= at) return;
  if (probe_wheel_armed_) sim_.cancel(probe_wheel_timer_);
  probe_wheel_armed_ = true;
  probe_wheel_at_ = at;
  probe_wheel_timer_ = sim_.at(at, [this, epoch = death_epoch_]() {
    if (epoch != death_epoch_) return;
    probe_wheel_fire();
  });
}

void Kernel::probe_wheel_fire() {
  probe_wheel_armed_ = false;
  // Collect due TIDs first: probe_tick may fail a request and erase it
  // from pending_ mid-scan. The scratch vector is a member so steady-state
  // probe churn reuses its buffer instead of allocating per fire.
  std::vector<Tid>& due = probe_due_scratch_;
  due.clear();
  for (auto& [tid, p] : pending_) {
    if (p.probe_active && p.next_probe_at <= sim_.now()) due.push_back(tid);
  }
  for (Tid tid : due) {
    auto it = pending_.find(tid);
    if (it == pending_.end() || !it->second.probe_active) continue;
    it->second.probe_active = false;
    probe_tick(tid);
  }
  sim::Time next = 0;
  bool have = false;
  for (auto& [tid, p] : pending_) {
    if (!p.probe_active) continue;
    if (!have || p.next_probe_at < next) {
      next = p.next_probe_at;
      have = true;
    }
  }
  if (have) probe_wheel_schedule(next);
}

void Kernel::probe_tick(Tid tid) {
  auto it = pending_.find(tid);
  if (it == pending_.end()) return;
  PendingRequest& p = it->second;
  if (p.phase != PendingRequest::Phase::kDelivered || p.accept_info) return;
  if (p.awaiting_probe_reply && !p.probe_reply_seen) {
    if (++p.probe_misses >= config_.timing.max_probe_misses) {
      // "If several successive probes fail, a crash is reported" (§3.6.2).
      metrics_.add(stats::Counter::kCrashesDetected);
      fail_request(p, CompletionStatus::kCrashed);
      return;
    }
  }
  Frame f;
  f.probe = net::ProbeSection{tid, false, false};
  transport_.send_control(p.server.mid, std::move(f));
  metrics_.add(stats::Counter::kProbesSent);
  sim_.trace().record(sim_.now(), TraceCategory::kProbe, mid_,
                      sim::TracePayload{}
                          .with_peer(p.server.mid)
                          .with_tid(static_cast<std::int32_t>(tid))
                          .with_status(sim::TraceStatus::kQuery));
  p.awaiting_probe_reply = true;
  p.probe_reply_seen = false;
  p.probe_active = true;
  p.next_probe_at = sim_.now() + config_.timing.probe_interval;
  probe_wheel_schedule(p.next_probe_at);
}

// ===================================================================
// Server-side arrival handling

void Kernel::on_request_delivered(const net::Frame& f) {
  const Pattern p = f.request->pattern & kPatternMask;
  if (net::is_reserved_pattern(p)) {
    serve_reserved(f);
    return;
  }
  DeliveredRequest dr;
  dr.requester = RequesterSignature{f.src, f.request->tid};
  dr.pattern = p;
  dr.arg = f.request->arg;
  dr.put_size = f.request->put_size;
  dr.get_size = f.request->get_size;
  dr.delivered_at = sim_.now();
  if (f.request->carries_data) {
    dr.data_present = true;
    dr.data = f.data;
  }
  delivered_[{f.src, f.request->tid}] = std::move(dr);
  sim_.trace().record(sim_.now(), TraceCategory::kRequestDelivered, mid_,
                      sim::TracePayload{}
                          .with_peer(f.src)
                          .with_tid(static_cast<std::int32_t>(f.request->tid)));
  dispatch_arrival(f);
}

void Kernel::dispatch_arrival(const net::Frame& f) {
  handler_busy_ = true;
  HandlerArgs args;
  args.reason = HandlerReason::kRequestArrival;
  args.asker = RequesterSignature{f.src, f.request->tid};
  args.arg = f.request->arg;
  args.invoked_pattern = f.request->pattern & kPatternMask;
  args.put_size = f.request->put_size;
  args.get_size = f.request->get_size;
  cpu_.run(config_.timing.context_switch, CostCategory::kContextSwitch,
           [this, args, epoch = death_epoch_]() {
             if (epoch != death_epoch_) return;
             if (!host_.has_client()) {
               handler_busy_ = false;
               return;
             }
             metrics_.add(stats::Counter::kHandlerInvocations);
             sim_.trace().record(
                 sim_.now(), TraceCategory::kHandlerInvoked, mid_,
                 sim::TracePayload{}.with_status(sim::TraceStatus::kArrival));
             host_.invoke_handler(args);
           });
}

// ===================================================================
// Kernel-served reserved patterns: booting & killing (§3.5)

bool Kernel::reserved_bound(Pattern p) const {
  if (p == kill_pattern_) return true;
  if (p == kSystemPattern) return true;
  if (load_pattern_ != 0 && p == load_pattern_) return true;
  if (boot_patterns_.count(p)) {
    // Boot patterns are advertised only while the node is clientless and
    // not already being loaded (§3.5.2-§3.5.3).
    return !host_.has_client() && load_pattern_ == 0;
  }
  return false;
}

void Kernel::respond_kernel_accept(const net::Frame& f, std::int32_t arg,
                                   Bytes reply_data) {
  const auto& rq = *f.request;
  const std::uint32_t get_n = std::min(
      static_cast<std::uint32_t>(reply_data.size()), rq.get_size);
  Frame af;
  af.accept =
      net::AcceptSection{rq.tid, arg, rq.carries_data ? rq.put_size : 0,
                         get_n, false, get_n > 0};
  if (get_n > 0) {
    reply_data.resize(get_n);
    af.data = std::move(reply_data);
    af.data_tag = net::DataTag::kAcceptData;
    af.data_tid = rq.tid;
  }
  // The kernel answers synchronously, so the REQUEST's ack is still owed
  // and the composite response is reliable via duplicate replay.
  transport_.send_control(f.src, std::move(af), /*store_as_response=*/true);
}

void Kernel::arm_load_deadline() {
  // While load_pattern_ is set the boot pattern stops matching (§3.5.2),
  // so a parent that dies or gives up mid-LOAD would otherwise leave the
  // free machine unbootable forever — the same wedge class as the
  // unbounded-ACCEPT wait of §3.3.2. Every load step (the boot GET and
  // each core-image PUT chunk) re-arms a deadline of one record lifetime
  // plus two retransmission spans; if the sequence stalls that long with
  // no client booted, the load is abandoned and the machine returns to
  // the free pool.
  const sim::Duration grace = config_.timing.record_lifetime() +
                              2 * config_.timing.retransmit_span();
  load_started_at_ = sim_.now();
  sim_.after(grace, [this, started = load_started_at_,
                     epoch = death_epoch_]() {
    if (epoch != death_epoch_) return;
    if (load_pattern_ == 0 || host_.has_client()) return;
    if (load_started_at_ != started) return;  // a later step re-armed it
    sim_.trace().record(
        sim_.now(), TraceCategory::kBoot, mid_,
        sim::TracePayload{}.with_status(sim::TraceStatus::kLoadAbandoned));
    metrics_.add(stats::Counter::kLoadsAbandoned);
    load_pattern_ = 0;
    core_image_.clear();
  });
}

void Kernel::serve_reserved(const net::Frame& f) {
  const Pattern p = f.request->pattern & kPatternMask;
  const auto& rq = *f.request;

  if (boot_patterns_.count(p) && !host_.has_client() && load_pattern_ == 0) {
    // GET <MID, BOOT_PATTERN>: allocate a LOAD pattern and return it
    // (§3.5.2). Boot patterns stop matching until the client dies.
    load_pattern_ = (uids_.next(mid_) | kReservedBit) &
                    ~kWellKnownBit & kPatternMask;
    core_image_.clear();
    sim_.trace().record(sim_.now(), TraceCategory::kBoot, mid_,
                        sim::TracePayload{}
                            .with_peer(f.src)
                            .with_status(sim::TraceStatus::kLoadAllocated));
    respond_kernel_accept(f, 0, pattern_to_bytes(load_pattern_));
    arm_load_deadline();
    return;
  }

  if (load_pattern_ != 0 && p == load_pattern_) {
    if (rq.put_size > 0) {
      // PUT <MID, LOAD_PATTERN>: the next chunk of the core image.
      if (rq.carries_data) {
        core_image_.insert(core_image_.end(), f.data.begin(), f.data.end());
        respond_kernel_accept(f, 0, {});
        arm_load_deadline();
      } else {
        // The chunk was stripped en route: ask for a late DATA frame.
        Frame af;
        af.accept = net::AcceptSection{rq.tid, 0, rq.put_size, 0, true, false};
        OngoingAccept oa;
        oa.requester = RequesterSignature{f.src, rq.tid};
        oa.waiting_put_data = true;
        oa.issued_at = sim_.now();
        oa.kernel_on_data = [this](const Bytes& d) {
          core_image_.insert(core_image_.end(), d.begin(), d.end());
          arm_load_deadline();
        };
        accepts_.emplace(ServerKey{f.src, rq.tid}, std::move(oa));
        transport_.send_sequenced(f.src, std::move(af));
        arm_accept_data_deadline(ServerKey{f.src, rq.tid});
      }
      return;
    }
    // SIGNAL <MID, LOAD_PATTERN>: first = start the client; second = the
    // parent kills it (§3.5.2).
    respond_kernel_accept(f, 0, {});
    if (!host_.has_client()) {
      ++boots_;
      metrics_.add(stats::Counter::kBoots);
      sim_.trace().record(sim_.now(), TraceCategory::kBoot, mid_,
                          sim::TracePayload{}
                              .with_peer(f.src)
                              .with_status(sim::TraceStatus::kBooting));
      Bytes image = core_image_;
      const Mid parent = f.src;
      sim_.after(0, [this, image, parent, epoch = death_epoch_]() {
        if (epoch != death_epoch_) return;
        host_.boot_client(image, parent);
      });
    } else {
      // Let the response leave before tearing the node down.
      sim_.after(2'500, [this, epoch = death_epoch_]() {
        if (epoch != death_epoch_) return;
        reset_for_death(/*client_initiated=*/false);
      });
    }
    return;
  }

  if (p == kill_pattern_) {
    // SIGNAL <MID, KILL_PATTERN>: unconditional death (§3.5.3).
    respond_kernel_accept(f, 0, {});
    if (host_.has_client() || load_pattern_ != 0) {
      sim_.after(2'500, [this, epoch = death_epoch_]() {
        if (epoch != death_epoch_) return;
        reset_for_death(/*client_initiated=*/false);
      });
    }
    return;
  }

  if (p == kSystemPattern) {
    // Machine 0 administers reserved patterns (§3.5.4).
    const Pattern target = pattern_from_bytes(f.data);
    switch (rq.arg) {
      case kSystemAddBoot:
        boot_patterns_.insert((target | kReservedBit) & kPatternMask);
        break;
      case kSystemDeleteBoot:
        boot_patterns_.erase((target | kReservedBit) & kPatternMask);
        break;
      case kSystemReplaceKill:
        kill_pattern_ = (target | kReservedBit) & kPatternMask;
        break;
      default:
        break;
    }
    respond_kernel_accept(f, 0, {});
    return;
  }

  // A reserved pattern that stopped being bound between classify and
  // deliver: answer nothing; the requester's probes will sort it out.
}

// ===================================================================

bool Kernel::is_recently_completed(ServerKey k) const {
  return std::find(completed_lru_.begin(), completed_lru_.end(), k) !=
         completed_lru_.end();
}

void Kernel::note_completed(ServerKey k) {
  completed_lru_.push_back(k);
  while (completed_lru_.size() > config_.completed_lru) {
    completed_lru_.pop_front();
  }
}

}  // namespace soda
