#include "chaos/invariants.h"

#include <string>

namespace soda::chaos {

namespace {

/// A kBoot event with DIE/KILLED status marks the end of an incarnation:
/// the node's kernel state (pending requests, delivered table, handler)
/// is gone from this instant on.
bool is_death(const sim::TraceEvent& e) {
  return e.category == sim::TraceCategory::kBoot &&
         (e.status == sim::TraceStatus::kDie ||
          e.status == sim::TraceStatus::kKilled);
}

std::string tid_key_str(int node, std::int32_t tid) {
  return "n" + std::to_string(node) + " tid=" + std::to_string(tid);
}

}  // namespace

// ------------------------------------------------- ExactlyOnceTermination

bool ExactlyOnceTermination::open(const Request& r, int node,
                                  std::int32_t tid) {
  return r.state == State::kOpen && (tid < 0 || r.epoch == deaths_[node]);
}

void ExactlyOnceTermination::on_event(const sim::TraceEvent& e) {
  using sim::TraceCategory;
  if (is_death(e)) {
    // The dead incarnation's open requests are legitimately abandoned.
    ++deaths_[e.node];
    return;
  }
  if (e.category == TraceCategory::kRequestIssued) {
    Request& r = requests_.at(e.node, e.tid);
    if (r.state == State::kTerminated || open(r, e.node, e.tid)) {
      fail(e.at, "tid reissued: " + tid_key_str(e.node, e.tid));
      return;
    }
    r = Request{State::kOpen, deaths_[e.node]};
    return;
  }
  if (e.category == TraceCategory::kRequestCompleted) {
    Request* r = requests_.find(e.node, e.tid);
    if (r == nullptr ||
        (r->state != State::kTerminated && !open(*r, e.node, e.tid))) {
      fail(e.at, "completion without issue: " + tid_key_str(e.node, e.tid));
      return;
    }
    if (r->state == State::kTerminated) {
      fail(e.at, "terminated twice: " + tid_key_str(e.node, e.tid));
      return;
    }
    r->state = State::kTerminated;
  }
}

void ExactlyOnceTermination::finish(sim::Time end) {
  requests_.for_each([&](int node, std::int32_t tid, const Request& r) {
    if (open(r, node, tid)) {
      fail(end, "never terminated after quiescence: " + tid_key_str(node, tid));
    }
  });
}

// --------------------------------------------------- AtMostOnceDelivery

void AtMostOnceDelivery::on_event(const sim::TraceEvent& e) {
  if (is_death(e)) {
    ++deaths_[e.node];
    return;
  }
  if (e.category != sim::TraceCategory::kRequestDelivered) return;
  const Epochs now{deaths_[e.node], deaths_[e.peer]};
  Delivery& d = delivered_.at(e.peer, e.tid);
  bool duplicate = false;
  if (!d.seen) {
    d = Delivery{true, e.node, now};
  } else if (d.server == e.node) {
    duplicate = d.last == now;
    d.last = now;
  } else {
    auto [it, first] = other_servers_.try_emplace({e.node, e.peer, e.tid}, now);
    duplicate = !first && it->second == now;
    it->second = now;
  }
  if (duplicate) {
    fail(e.at, "duplicate delivery at n" + std::to_string(e.node) +
                   " of n" + std::to_string(e.peer) +
                   " tid=" + std::to_string(e.tid));
  }
}

// ------------------------------------------------------- NoStaleAccept

void NoStaleAccept::on_event(const sim::TraceEvent& e) {
  using sim::TraceStatus;
  if (is_death(e)) {
    ++deaths_[e.node];
    return;
  }
  if (e.category == sim::TraceCategory::kHandlerInvoked &&
      e.status == TraceStatus::kBooting) {
    alive_[e.node] = deaths_[e.node];
    return;
  }
  if (e.category == sim::TraceCategory::kRequestIssued) {
    issued_in_.at(e.node, e.tid).epoch = deaths_[e.node];
    return;
  }
  if (e.category != sim::TraceCategory::kAcceptCompleted) return;
  const bool success = e.status == TraceStatus::kCompleted ||
                       e.status == TraceStatus::kPiggybacked ||
                       e.status == TraceStatus::kNone;
  if (!success) return;
  const Issued* issued = issued_in_.find(e.peer, e.tid);
  // Not issued since tracing started.
  if (issued == nullptr || issued->epoch < 0) return;
  // Only a success after a NEWER incarnation of the requester has booted
  // is a protocol violation; completing while the requester is dead (or
  // gone for good) is the benign piggyback case.
  if (alive_[e.peer] > issued->epoch) {
    fail(e.at, "n" + std::to_string(e.node) +
                   " accepted pre-reboot request " +
                   tid_key_str(e.peer, e.tid));
  }
}

// ---------------------------------------------------- HandlerNeverNests

void HandlerNeverNests::on_event(const sim::TraceEvent& e) {
  using sim::TraceCategory;
  if (is_death(e)) {
    busy_[e.node] = 0;  // the kernel tears the handler down
    return;
  }
  if (e.category == TraceCategory::kHandlerInvoked) {
    std::uint8_t& busy = busy_[e.node];
    if (busy != 0) {
      fail(e.at, "handler invoked while busy on n" + std::to_string(e.node));
    }
    busy = 1;
    return;
  }
  if (e.category == TraceCategory::kHandlerEnded) {
    busy_[e.node] = 0;
  }
}

// ---------------------------------------------------------- InvariantSet

InvariantSet InvariantSet::standard() {
  InvariantSet set;
  set.add(std::make_unique<ExactlyOnceTermination>());
  set.add(std::make_unique<AtMostOnceDelivery>());
  set.add(std::make_unique<NoStaleAccept>());
  set.add(std::make_unique<HandlerNeverNests>());
  return set;
}

std::vector<Violation> InvariantSet::violations() const {
  std::vector<Violation> all;
  for (const auto& c : checkers_) {
    all.insert(all.end(), c->violations().begin(), c->violations().end());
  }
  return all;
}

bool InvariantSet::ok() const {
  for (const auto& c : checkers_) {
    if (!c->violations().empty()) return false;
  }
  return true;
}

}  // namespace soda::chaos
