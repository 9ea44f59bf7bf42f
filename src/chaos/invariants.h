// Online invariant checkers over the typed TraceEvent stream.
//
// Each Invariant subscribes (through InvariantSet, installed as the
// sim::Trace observer) to every event a chaos run records and asserts an
// end-to-end protocol property while the simulation executes; finish()
// runs the quiescence checks once the network has drained. The properties
// come from the paper's crash semantics (§3.6, §6) read through the
// failure-model taxonomy of Aspnes' distributed-systems notes: what must
// hold no matter which prefix of messages is lost, duplicated, delayed,
// or cut by a crash.
//
// A Violation is evidence, not an exception: checkers collect up to a cap
// and the runner reports them with the (scenario, seed) pair that
// reproduces the trace bit-identically.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "chaos/tid_table.h"
#include "sim/trace.h"

namespace soda::chaos {

struct Violation {
  std::string invariant;
  sim::Time at = 0;
  std::string detail;
};

class Invariant {
 public:
  virtual ~Invariant() = default;
  virtual std::string_view name() const = 0;
  virtual void on_event(const sim::TraceEvent& e) = 0;
  /// Bitmask of TraceCategory values this checker wants to see (bit
  /// `1 << category`). InvariantSet uses it to skip the virtual on_event
  /// call for the categories a checker ignores — packet events dominate a
  /// trace stream and most checkers only watch request/boot milestones.
  /// Default: everything (always safe; merely slower).
  virtual std::uint64_t category_mask() const { return ~0ull; }
  /// Called once after the run has quiesced (network drained, no load).
  virtual void finish(sim::Time end) { (void)end; }

  const std::vector<Violation>& violations() const { return violations_; }

 protected:
  void fail(sim::Time at, std::string detail) {
    if (violations_.size() >= kMaxViolations) return;
    violations_.push_back(Violation{std::string(name()), at,
                                    std::move(detail)});
  }
  static constexpr std::size_t kMaxViolations = 16;

  static constexpr std::uint64_t cat_bit(sim::TraceCategory c) {
    return 1ull << static_cast<unsigned>(c);
  }

 private:
  std::vector<Violation> violations_;
};

/// Every REQUEST issued by a live incarnation terminates in exactly one of
/// COMPLETED / CANCELLED / CRASHED / UNADVERTISED — never zero (after
/// quiescence) and never twice. Requests whose issuer died are forgiven:
/// a crash wipes the requester's pending table by design (§3.6.1).
class ExactlyOnceTermination final : public Invariant {
 public:
  std::string_view name() const override { return "exactly-once-termination"; }
  void on_event(const sim::TraceEvent& e) override;
  std::uint64_t category_mask() const override {
    return cat_bit(sim::TraceCategory::kBoot) |
           cat_bit(sim::TraceCategory::kRequestIssued) |
           cat_bit(sim::TraceCategory::kRequestCompleted);
  }
  void finish(sim::Time end) override;

 private:
  enum class State : std::uint8_t { kNone, kOpen, kTerminated };
  struct Request {
    State state = State::kNone;
    int epoch = 0;  // the issuer's incarnation when it was issued
  };
  /// Whether `r` of `node`'s tid `tid` is still open: a death abandons the
  /// open requests (tid >= 0) of every earlier incarnation.
  bool open(const Request& r, int node, std::int32_t tid);

  TidTable<Request> requests_;  // (issuer, tid)
  NodeTable<int> deaths_;       // node -> incarnation epoch
};

/// A REQUEST is handed to the server's client at most once per (server
/// incarnation, requester incarnation): the alternating-bit + Delta-t
/// machinery must reject every duplicate the bus injects. Redelivery to a
/// *new* server incarnation after a reboot is legal (§3.6.2) — the
/// requester's kernel still holds the request and retransmits it.
class AtMostOnceDelivery final : public Invariant {
 public:
  std::string_view name() const override { return "at-most-once-delivery"; }
  void on_event(const sim::TraceEvent& e) override;
  std::uint64_t category_mask() const override {
    return cat_bit(sim::TraceCategory::kBoot) |
           cat_bit(sim::TraceCategory::kRequestDelivered);
  }

 private:
  /// Incarnation epochs of (server, requester) at a delivery. Epochs
  /// only rise, so a pair seen before equals the last one seen: one pair
  /// per (server, requester, tid) decides every duplicate.
  struct Epochs {
    int server = 0;
    int requester = 0;
    bool operator==(const Epochs&) const = default;
  };
  struct Delivery {
    bool seen = false;
    int server = 0;  // the first server the request was delivered to
    Epochs last;
  };

  NodeTable<int> deaths_;          // node -> incarnation epoch
  TidTable<Delivery> delivered_;   // (requester, tid), first server
  // Deliveries of one request to further servers (anycast failover).
  std::map<std::tuple<int, int, std::int32_t>, Epochs> other_servers_;
};

/// No ACCEPT of a pre-reboot request succeeds once the requester's *new*
/// incarnation is up: old TIDs must be rejected by the stale-accept check
/// (§6, boot_min_tid) — a success would hand data to a ghost. An accept
/// that completes while the requester is merely dead (or never reboots) is
/// legal: the server cannot know yet, and piggybacked request data lets it
/// finish without ever hearing from the requester again.
class NoStaleAccept final : public Invariant {
 public:
  std::string_view name() const override { return "no-stale-accept"; }
  void on_event(const sim::TraceEvent& e) override;
  std::uint64_t category_mask() const override {
    return cat_bit(sim::TraceCategory::kBoot) |
           cat_bit(sim::TraceCategory::kHandlerInvoked) |
           cat_bit(sim::TraceCategory::kRequestIssued) |
           cat_bit(sim::TraceCategory::kAcceptCompleted);
  }

 private:
  struct Issued {
    int epoch = -1;  // the issuer's incarnation; -1 = never issued
  };
  NodeTable<int> deaths_;        // node -> death count
  NodeTable<int> alive_;         // node -> epoch of the booted incarnation
  TidTable<Issued> issued_in_;   // (issuer, tid)
};

/// The client handler never nests: between a handler invocation and its
/// ENDHANDLER the kernel must not invoke the handler again (§3.7.5 — the
/// uniprogrammed discipline chaos loves to probe with completion storms).
class HandlerNeverNests final : public Invariant {
 public:
  std::string_view name() const override { return "handler-never-nests"; }
  void on_event(const sim::TraceEvent& e) override;
  std::uint64_t category_mask() const override {
    return cat_bit(sim::TraceCategory::kBoot) |
           cat_bit(sim::TraceCategory::kHandlerInvoked) |
           cat_bit(sim::TraceCategory::kHandlerEnded);
  }

 private:
  NodeTable<std::uint8_t> busy_;  // 1 while a handler runs
};

/// A registry of invariants driven by one trace stream.
class InvariantSet {
 public:
  InvariantSet() = default;
  InvariantSet(InvariantSet&&) = default;
  InvariantSet& operator=(InvariantSet&&) = default;

  /// The four standard checkers every chaos run gets.
  static InvariantSet standard();

  void add(std::unique_ptr<Invariant> inv) {
    const std::uint64_t mask = inv->category_mask();
    for (std::size_t c = 0; c < sim::kNumTraceCategories; ++c) {
      if (mask & (1ull << c)) by_category_[c].push_back(inv.get());
    }
    checkers_.push_back(std::move(inv));
  }

  /// Dispatches only to the checkers whose category_mask() covers the
  /// event's category. Packet events (the bulk of any trace) match none of
  /// the standard checkers, so the common case is an empty loop.
  void on_event(const sim::TraceEvent& e) {
    for (auto* c : by_category_[static_cast<std::size_t>(e.category)]) {
      c->on_event(e);
    }
  }
  void finish(sim::Time end) {
    for (auto& c : checkers_) c->finish(end);
  }

  /// All violations, flattened in checker order.
  std::vector<Violation> violations() const;
  bool ok() const;

 private:
  std::vector<std::unique_ptr<Invariant>> checkers_;
  // Raw views into checkers_, one list per category. Moving the set moves
  // the vectors; the pointed-to checkers live on the heap and stay put.
  std::array<std::vector<Invariant*>, sim::kNumTraceCategories> by_category_{};
};

}  // namespace soda::chaos
