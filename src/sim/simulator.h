// The discrete-event simulator that stands in for the paper's testbed of
// eight bare PDP-11/23s on a 1 Mbit broadcast bus (§5.1).
//
// All components (bus, NICs, SODA kernels, clients) share one Simulator:
// they read the clock, schedule callbacks, draw randomness, and record
// traces through it. Running the simulator to quiescence executes the
// whole distributed system deterministically.
//
// Partitioned mode — pinned-hash epoch 2 (doc/PERFORMANCE.md §5):
// enable_partitions(P) splits the engine into P partition wheels, each
// owning a private timer wheel, a private RNG stream split from the root
// seed (Rng(seed, p)), a private local sequence counter, and a private
// trace buffer. Execution proceeds in lookahead windows:
//
//   begin_window(deadline)   place the window at the earliest pending
//                            event; collect the partitions with work in it
//   execute_partition_window(p)
//                            run partition p's events inside the window —
//                            independent per partition (own wheel, own RNG,
//                            own trace buffer), so the result does not
//                            depend on the order partitions execute in
//   commit_window()          barrier: apply cross-partition schedules and
//                            cancels staged during the window in ascending
//                            source-partition order, merge the window's
//                            trace buffers by (time, partition), advance
//                            the global clock
//
// Cross-partition schedules/cancels issued *inside* a window are the only
// inter-wheel writes; they are staged per source partition and applied at
// the barrier, so the result is a pure function of (scenario, seed,
// lookahead, run_until deadlines). run_until/run walk the protocol one
// partition at a time on the calling thread; a Simulator is only ever
// touched by one thread.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/time.h"
#include "sim/trace.h"
#include "stats/metrics.h"

namespace soda::sim {

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1) : seed_(seed), rng_(seed) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const { return now_; }

  /// The RNG stream for the ambient partition: the root stream on an
  /// unpartitioned simulator, the partition-affine split stream otherwise.
  /// During window execution a callback may only draw from the stream of
  /// the partition it executes on — that independence is the epoch-2
  /// contract that makes each stream a pure function of its partition.
  Rng& rng() {
    if (part_ == nullptr) return rng_;
    assert((part_->executing < 0 || part_->current == part_->executing) &&
           "RNG draw under a foreign ScopedPartition during execution");
    return part_->parts[static_cast<std::size_t>(part_->current)].rng;
  }

  Trace& trace() { return trace_; }
  stats::MetricsHub& metrics() { return metrics_; }
  const stats::MetricsHub& metrics() const { return metrics_; }

  /// Split the engine into `count` partition wheels. Must be called before
  /// anything is scheduled — every partition's RNG stream and sequence
  /// space exist from birth.
  void enable_partitions(int count) {
    if (count < 1) throw std::logic_error("partition count must be >= 1");
    if (part_ != nullptr) throw std::logic_error("partitions already enabled");
    if (queue_.scheduled_total() != 0) {
      throw std::logic_error("enable_partitions after events were scheduled");
    }
    part_ = std::make_unique<Partitioned>();
    part_->parts = std::vector<Part>(static_cast<std::size_t>(count));
    for (int p = 0; p < count; ++p) {
      part_->parts[static_cast<std::size_t>(p)].rng =
          Rng(seed_, static_cast<std::uint64_t>(p));
    }
  }

  bool partitioned() const { return part_ != nullptr; }
  int partition_count() const {
    return part_ == nullptr ? 1 : static_cast<int>(part_->parts.size());
  }

  /// Ambient partition for newly scheduled events. Defaults to the
  /// partition of the currently executing callback (events inherit their
  /// executor's wheel); topology code pins it with ScopedPartition while
  /// constructing nodes or addressing another component's wheel.
  int current_partition() const {
    return part_ == nullptr ? 0 : part_->current;
  }
  void set_current_partition(int p) {
    if (part_ == nullptr) return;
    assert(p >= 0 && p < partition_count());
    part_->current = p;
  }

  /// Conservative lookahead: the minimum cross-partition latency the
  /// topology guarantees (min bus propagation delay, gateway hold time).
  /// Under epoch 2 this is also the execution window width, so it is part
  /// of the determinism contract: same lookahead (and same run_until
  /// deadlines) => same window boundaries => same staged-op application
  /// order. A cross-partition schedule closer than the lookahead is
  /// counted as a violation and lands — deterministically — at the next
  /// window boundary instead of its nominal time (bounded-late delivery).
  void set_lookahead(Duration d) {
    if (part_ != nullptr) part_->lookahead = d;
  }
  Duration lookahead() const { return part_ == nullptr ? 0 : part_->lookahead; }
  std::uint64_t lookahead_violations() const {
    if (part_ == nullptr) return 0;
    std::uint64_t v = 0;
    for (const Part& p : part_->parts) v += p.violations;
    return v;
  }

  /// Schedule `fn` to run `delay` microseconds from now. Callables whose
  /// captures fit EventFn::kInlineBytes are stored without allocating.
  template <typename F>
  EventId after(Duration delay, F&& fn) {
    assert(delay >= 0);
    return schedule_abs(now() + delay, delay, std::forward<F>(fn));
  }

  /// Schedule `fn` at an absolute simulated time (must be >= now()).
  template <typename F>
  EventId at(Time when, F&& fn) {
    const Time base = now();
    if (when < base) throw std::logic_error("scheduling into the past");
    return schedule_abs(when, when - base, std::forward<F>(fn));
  }

  void cancel(EventId id) {
    if (part_ == nullptr) {
      queue_.cancel(id);
      return;
    }
    if (id == 0) return;  // default-initialized / staged-schedule sentinel
    const int target = static_cast<int>(id >> kPartShift) - 1;
    const std::uint64_t lseq = id & kLseqMask;
    if (target < 0 || target >= partition_count()) return;
    const int executing = part_->executing;
    if (executing >= 0 && target != executing) {
      // Cross-partition cancel from inside a window: stage it for the
      // barrier, so the outcome does not depend on whether the target
      // partition executes before or after this one. If the event fires
      // within this same window the cancel arrives too late.
      Part& src = part_->parts[static_cast<std::size_t>(executing)];
      StagedOp op;
      op.cancel = true;
      op.target = target;
      op.lseq = lseq;
      src.staged.push_back(std::move(op));
      return;
    }
    apply_cancel(target, lseq);
  }

  /// Run events until the queue drains or `deadline` is reached (whichever
  /// first). Returns the number of events executed.
  std::size_t run_until(Time deadline) {
    std::size_t n = 0;
    if (part_ == nullptr) {
      while (!queue_.empty() && queue_.next_time() <= deadline) {
        step();
        ++n;
      }
    } else {
      while (begin_window(deadline)) {
        for (int p : part_->active) execute_partition_window(p);
        n += commit_window();
      }
    }
    if (now_ < deadline) now_ = deadline;
    return n;
  }

  /// Run until the event queue is empty. Guards against runaway protocols
  /// with an event-count limit.
  std::size_t run(std::size_t max_events = 100'000'000) {
    std::size_t n = 0;
    if (part_ == nullptr) {
      while (!queue_.empty()) {
        step();
        if (++n > max_events) throw std::runtime_error("simulation runaway");
      }
    } else {
      while (begin_window(kNever)) {
        for (int p : part_->active) execute_partition_window(p);
        n += commit_window();
        if (n > max_events) throw std::runtime_error("simulation runaway");
      }
    }
    return n;
  }

  bool idle() const {
    if (part_ == nullptr) return queue_.empty();
    for (const Part& p : part_->parts) {
      if (!p.live.empty()) return false;
    }
    return true;
  }

  /// Earliest pending event time across all partitions (nullopt when
  /// idle). This is where the next window will be placed.
  std::optional<Time> next_event_time() {
    if (part_ == nullptr) {
      if (queue_.empty()) return std::nullopt;
      return queue_.next_time();
    }
    Partitioned& ps = *part_;
    while (!ps.heap.empty()) {
      const HeapEntry top = ps.heap.front();
      if (ps.parts[static_cast<std::size_t>(top.part)].next_cache == top.at) {
        return top.at;
      }
      std::pop_heap(ps.heap.begin(), ps.heap.end(), heap_after);
      ps.heap.pop_back();
    }
    return std::nullopt;
  }

  // ---- The epoch-2 window protocol -------------------------------------
  //
  // run_until/run above drive these three steps; a benchmark may drive
  // them directly to time each step.

  /// Place the next execution window: start at the earliest pending event,
  /// extend by max(lookahead, 1) (truncated at `deadline`), and collect
  /// every partition with events inside it. Returns false when nothing is
  /// pending at or before `deadline`.
  bool begin_window(Time deadline) {
    Partitioned& ps = *part_;
    assert(!ps.in_window && ps.active.empty());
    const std::optional<Time> start = next_event_time();
    if (!start || *start > deadline) return false;
    const Duration width = std::max<Duration>(ps.lookahead, 1);
    const Time we =
        deadline - *start > width - 1 ? *start + width - 1 : deadline;
    while (!ps.heap.empty()) {
      const HeapEntry top = ps.heap.front();
      if (top.at > we) break;
      std::pop_heap(ps.heap.begin(), ps.heap.end(), heap_after);
      ps.heap.pop_back();
      Part& p = ps.parts[static_cast<std::size_t>(top.part)];
      if (p.next_cache != top.at || p.in_window) continue;  // stale / dup
      p.in_window = true;
      ps.active.push_back(top.part);
    }
    std::sort(ps.active.begin(), ps.active.end());
    ps.window_end = we;
    ps.in_window = true;
    return true;
  }

  /// Partitions collected by begin_window, ascending. Valid until the
  /// matching commit_window.
  const std::vector<int>& window_partitions() const { return part_->active; }

  /// Time the current window closes at (valid between begin_window and
  /// commit_window).
  Time window_end() const { return part_->window_end; }

  /// Execute partition `p`'s events inside the current window, in (time,
  /// local seq) order. Touches only partition-local state (wheel, RNG
  /// stream, live map, staging list, trace buffer), so the partitions of
  /// one window may execute in any order. Same-partition schedules apply
  /// immediately (and run in this window if they land inside it);
  /// cross-partition schedules and cancels are staged for commit_window.
  /// The clock and ambient partition are restored on return, so between
  /// windows now() is the last committed window end.
  void execute_partition_window(int part) {
    Partitioned& ps = *part_;
    Part& p = ps.parts[static_cast<std::size_t>(part)];
    const Time we = ps.window_end;
    const Time saved_now = now_;
    const int saved_current = ps.current;
    ps.executing = part;
    trace_.set_buffer(&p.buffer);
    auto leave = [&] {
      trace_.set_buffer(nullptr);
      ps.executing = -1;
      ps.current = saved_current;
      now_ = saved_now;
    };
    std::size_t n = 0;
    try {
      while (!p.queue.empty() && p.queue.next_time() <= we) {
        EventQueue::KeyedEvent ev = p.queue.pop_keyed();
        p.live.erase(ev.seq);
        now_ = ev.at;
        ps.current = part;  // events inherit their executor's wheel
        ev.fn();
        ++n;
      }
    } catch (...) {
      // The simulation is not resumable after a throwing callback; only
      // leave the simulator's ambient state consistent for teardown.
      leave();
      throw;
    }
    p.executed_window = n;
    p.next_cache = p.queue.empty() ? kNever : p.queue.next_time();
    leave();
  }

  /// Window barrier. Applies the staged cross-partition operations in
  /// ascending source-partition order (then staging order — exactly the
  /// order serial execution produces them in), stable-merges the window's
  /// per-partition trace buffers by (time, partition) into the real trace
  /// sink, refreshes the window heap, and advances the clock to the
  /// window end. Returns the number of events executed in the window.
  std::size_t commit_window() {
    Partitioned& ps = *part_;
    assert(ps.in_window);
    const Time we = ps.window_end;
    std::size_t executed = 0;
    for (int part : ps.active) {
      Part& p = ps.parts[static_cast<std::size_t>(part)];
      executed += p.executed_window;
      p.executed_window = 0;
      for (StagedOp& op : p.staged) {
        if (op.cancel) {
          apply_cancel(op.target, op.lseq);
        } else {
          // A staged schedule aimed inside the closing window (a lookahead
          // violation) lands at the next window boundary instead — late by
          // less than one window, and deterministically so.
          apply_schedule(op.target, std::max(op.when, we + 1),
                         std::move(op.fn));
        }
      }
      p.staged.clear();
    }
    commit_traces();
    for (int part : ps.active) {
      Part& p = ps.parts[static_cast<std::size_t>(part)];
      p.in_window = false;
      if (p.next_cache != kNever) heap_push(p.next_cache, part);
    }
    ps.active.clear();
    ps.in_window = false;
    now_ = we;
    return executed;
  }

  // ----------------------------------------------------------------------

  /// Lifetime scheduling totals (see EventQueue) — the bench harness uses
  /// these as a deterministic proxy for timer-bookkeeping cost.
  std::uint64_t events_scheduled() const {
    if (part_ == nullptr) return queue_.scheduled_total();
    std::uint64_t n = 0;
    for (const Part& p : part_->parts) n += p.lseq_next;
    return n;
  }
  std::uint64_t events_cancelled() const {
    if (part_ == nullptr) return queue_.cancelled_total();
    std::uint64_t n = 0;
    for (const Part& p : part_->parts) n += p.cancelled;
    return n;
  }

 private:
  static constexpr Time kNever = std::numeric_limits<Time>::max();
  static constexpr int kPartShift = 40;
  static constexpr EventId kLseqMask = (EventId{1} << kPartShift) - 1;

  /// A cross-partition operation issued while a window executes, applied
  /// at the barrier.
  struct StagedOp {
    bool cancel = false;
    int target = 0;
    Time when = 0;        // schedule: absolute target time
    std::uint64_t lseq = 0;  // cancel: target-partition local seq
    EventFn fn;           // schedule payload
  };

  /// Per-partition execution state.
  struct Part {
    EventQueue queue;
    Rng rng{0};
    std::uint64_t lseq_next = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t violations = 0;
    std::unordered_map<std::uint64_t, EventId> live;  // lseq -> wheel id
    std::vector<StagedOp> staged;
    std::vector<TraceEvent> buffer;  // window trace buffer
    std::size_t executed_window = 0;
    Time next_cache = kNever;  // earliest pending time (may be stale-early
                               // after a head cancel; self-heals next window)
    bool in_window = false;
  };

  /// Lazy min-heap entry over partition head times; an entry is valid iff
  /// it still equals its partition's next_cache.
  struct HeapEntry {
    Time at;
    int part;
  };
  static bool heap_after(const HeapEntry& a, const HeapEntry& b) {
    if (a.at != b.at) return a.at > b.at;
    return a.part > b.part;
  }

  struct Partitioned {
    std::vector<Part> parts;
    std::vector<HeapEntry> heap;  // lazy min-heap of partition heads
    std::vector<int> active;      // partitions in the current window
    Duration lookahead = 0;
    Time window_end = 0;
    bool in_window = false;
    int current = 0;     // ambient partition for new schedules
    int executing = -1;  // partition inside execute_partition_window, or -1
  };

  static EventId outer_id(int part, std::uint64_t lseq) {
    assert(lseq <= kLseqMask);
    return (static_cast<EventId>(part + 1) << kPartShift) | lseq;
  }

  void heap_push(Time at, int part) {
    Partitioned& ps = *part_;
    ps.heap.push_back(HeapEntry{at, part});
    std::push_heap(ps.heap.begin(), ps.heap.end(), heap_after);
  }

  template <typename F>
  EventId schedule_abs(Time when, Duration delay, F&& fn) {
    if (part_ == nullptr) return queue_.schedule(when, std::forward<F>(fn));
    const int executing = part_->executing;
    const int target = part_->current;
    if (executing >= 0) {
      if (target == executing) {
        // Same-partition: apply directly. No heap push — the partition is
        // active in this window and commit_window re-pushes its head.
        return apply_schedule_local(target, when, std::forward<F>(fn));
      }
      // Cross-partition from inside a window: stage for the barrier. The
      // returned id is 0 — the event cannot be cancelled until it has
      // materialized in the target wheel (after the next barrier).
      Part& src = part_->parts[static_cast<std::size_t>(executing)];
      if (delay < part_->lookahead) ++src.violations;
      StagedOp op;
      op.target = target;
      op.when = when;
      op.fn = std::forward<F>(fn);
      src.staged.push_back(std::move(op));
      return 0;
    }
    return apply_schedule(target, when, std::forward<F>(fn));
  }

  /// Insert into the target wheel and update its head cache. Only valid
  /// outside window execution (at the barrier, or from top-level code).
  template <typename F>
  EventId apply_schedule(int target, Time when, F&& fn) {
    const EventId id = apply_schedule_local(target, when, std::forward<F>(fn));
    Part& p = part_->parts[static_cast<std::size_t>(target)];
    // The heap needs an entry matching the (possibly improved) head.
    if (p.next_cache == when && !p.in_window) heap_push(when, target);
    return id;
  }

  template <typename F>
  EventId apply_schedule_local(int target, Time when, F&& fn) {
    Part& p = part_->parts[static_cast<std::size_t>(target)];
    const std::uint64_t lseq = p.lseq_next++;
    const EventId inner =
        p.queue.schedule_tagged(when, lseq, std::forward<F>(fn));
    p.live.emplace(lseq, inner);
    if (when < p.next_cache) p.next_cache = when;
    return outer_id(target, lseq);
  }

  void apply_cancel(int target, std::uint64_t lseq) {
    Part& p = part_->parts[static_cast<std::size_t>(target)];
    auto it = p.live.find(lseq);
    if (it == p.live.end()) return;  // already fired or cancelled
    p.queue.cancel(it->second);
    p.live.erase(it);
    ++p.cancelled;
  }

  /// Stable-merge the window's per-partition trace buffers by (time,
  /// partition) — each buffer is time-ordered already, and concatenating
  /// in ascending partition order before a stable sort on time yields the
  /// canonical epoch-2 commit order — then replay through the real sink
  /// (observer, retention, counters).
  void commit_traces() {
    Partitioned& ps = *part_;
    std::vector<TraceEvent>* only = nullptr;
    std::size_t total = 0;
    for (int part : ps.active) {
      Part& p = ps.parts[static_cast<std::size_t>(part)];
      if (p.buffer.empty()) continue;
      total += p.buffer.size();
      only = &p.buffer;
    }
    if (total == 0) return;
    if (only != nullptr && only->size() == total) {
      for (const TraceEvent& e : *only) trace_.commit(e);
      only->clear();
      return;
    }
    merged_.clear();
    merged_.reserve(total);
    for (int part : ps.active) {
      Part& p = ps.parts[static_cast<std::size_t>(part)];
      merged_.insert(merged_.end(), p.buffer.begin(), p.buffer.end());
      p.buffer.clear();
    }
    std::stable_sort(
        merged_.begin(), merged_.end(),
        [](const TraceEvent& a, const TraceEvent& b) { return a.at < b.at; });
    for (const TraceEvent& e : merged_) trace_.commit(e);
  }

  void step() {
    auto [at, fn] = queue_.pop();
    assert(at >= now_);
    now_ = at;
    fn();
  }

  std::uint64_t seed_;
  Time now_ = 0;
  EventQueue queue_;
  Rng rng_;
  Trace trace_;
  stats::MetricsHub metrics_;
  std::unique_ptr<Partitioned> part_;
  std::vector<TraceEvent> merged_;  // commit_traces scratch
};

/// Pin the ambient partition for the current scope: topology constructors
/// (node roots) and fault injectors wrap themselves in one so events land
/// on the wheel of the component that owns them. A no-op on an
/// unpartitioned simulator.
class ScopedPartition {
 public:
  ScopedPartition(Simulator& sim, int partition)
      : sim_(sim), saved_(sim.current_partition()) {
    sim_.set_current_partition(partition);
  }
  ~ScopedPartition() { sim_.set_current_partition(saved_); }
  ScopedPartition(const ScopedPartition&) = delete;
  ScopedPartition& operator=(const ScopedPartition&) = delete;

 private:
  Simulator& sim_;
  int saved_;
};

}  // namespace soda::sim
