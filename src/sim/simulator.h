// The discrete-event simulator that stands in for the paper's testbed of
// eight bare PDP-11/23s on a 1 Mbit broadcast bus (§5.1).
//
// All components (bus, NICs, SODA kernels, clients) share one Simulator:
// they read the clock, schedule callbacks, draw randomness, and record
// traces through it. Running the simulator to quiescence executes the
// whole distributed system deterministically.
//
// One engine — pinned-hash epoch 2 (doc/PERFORMANCE.md §5). The simulator
// is a set of partition wheels, each owning a private timer wheel, a
// private RNG stream and a private trace buffer. A default-constructed
// Simulator has one partition, drawing from Rng(seed);
// enable_partitions(P) re-splits it before anything is scheduled, and
// partition p then draws from Rng(seed, p). Execution proceeds in
// lookahead windows:
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
// lookahead, run_until deadlines). With one partition there is no such
// edge, so its window runs straight to the deadline and the clock follows
// each event, exactly like a plain event loop. run_until/run walk the
// protocol one partition at a time on the calling thread; a Simulator is
// only ever touched by one thread.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/time.h"
#include "sim/trace.h"
#include "stats/metrics.h"

namespace soda::sim {

/// Layout of a Simulator EventId: the partition wheel's own id (cell index
/// in the low 32 bits, the cell's full 32-bit generation in the high 32),
/// with the partition number in the top bits of the cell field — as few
/// as number every partition. A one-partition simulator spends no bits on
/// the partition, so its ids are the wheel's ids. Both bounds throw
/// std::length_error instead of wrapping: more than 2^kMaxPartitionBits
/// partitions, or a partition whose slab outgrows the cell bits left over.
class EventIdLayout {
 public:
  static constexpr int kMaxPartitionBits = 16;

  explicit EventIdLayout(int partitions = 1) {
    const int bits =
        std::bit_width(static_cast<std::uint32_t>(partitions - 1));
    if (bits > kMaxPartitionBits) {
      throw std::length_error("more partitions than an EventId can number");
    }
    cell_bits_ = 32 - bits;
    part_mask_ = kCellField & ~((std::uint64_t{1} << cell_bits_) - 1);
  }

  /// Tag wheel id `wheel_id` with partition `part`.
  EventId pack(int part, EventId wheel_id) const {
    if ((wheel_id & part_mask_) != 0) {
      throw std::length_error(
          "partition holds more event cells than its EventId field numbers");
    }
    return wheel_id | (static_cast<EventId>(part) << cell_bits_);
  }
  int partition(EventId id) const {
    return static_cast<int>((id & part_mask_) >> cell_bits_);
  }
  EventId wheel_id(EventId id) const { return id & ~part_mask_; }

 private:
  static constexpr std::uint64_t kCellField = 0xffffffffu;
  int cell_bits_ = 32;
  std::uint64_t part_mask_ = 0;
};

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1) : seed_(seed) { split(1); }

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const { return now_; }

  /// The RNG stream of the ambient partition. During window execution a
  /// callback may only draw from the stream of the partition it executes
  /// on — that independence is the epoch-2 contract that makes each stream
  /// a pure function of its partition.
  Rng& rng() {
    assert((executing_ < 0 || current_ == executing_) &&
           "RNG draw under a foreign ScopedPartition during execution");
    return parts_[static_cast<std::size_t>(current_)].rng;
  }

  Trace& trace() { return trace_; }
  stats::MetricsHub& metrics() { return metrics_; }
  const stats::MetricsHub& metrics() const { return metrics_; }

  /// Re-split the engine into `count` partition wheels. Must be called
  /// before anything is scheduled — every partition's RNG stream and
  /// wheel exist from birth.
  void enable_partitions(int count) {
    if (count < 1) throw std::logic_error("partition count must be >= 1");
    if (events_scheduled() != 0) {
      throw std::logic_error("enable_partitions after events were scheduled");
    }
    split(count);
  }

  int partition_count() const { return static_cast<int>(parts_.size()); }

  /// Ambient partition for newly scheduled events. Defaults to the
  /// partition of the currently executing callback (events inherit their
  /// executor's wheel); topology code pins it with ScopedPartition while
  /// constructing nodes or addressing another component's wheel.
  int current_partition() const { return current_; }
  void set_current_partition(int p) {
    assert(p >= 0 && p < partition_count());
    current_ = p;
  }

  /// Conservative lookahead: the minimum cross-partition latency the
  /// topology guarantees (min bus propagation delay, gateway hold time).
  /// Under epoch 2 this is also the execution window width, so it is part
  /// of the determinism contract: same lookahead (and same run_until
  /// deadlines) => same window boundaries => same staged-op application
  /// order. A cross-partition schedule closer than the lookahead is
  /// counted as a violation and lands — deterministically — at the next
  /// window boundary instead of its nominal time (bounded-late delivery).
  void set_lookahead(Duration d) { lookahead_ = d; }
  std::uint64_t lookahead_violations() const {
    std::uint64_t v = 0;
    for (const Part& p : parts_) v += p.violations;
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

  /// Cancel a scheduled event. Cancelling an event that already ran, was
  /// already cancelled, or whose wheel cell has since been reused is a
  /// no-op: the wheel checks the id's full generation.
  void cancel(EventId id) {
    if (id == 0) return;  // default-initialized / staged-schedule sentinel
    const int target = ids_.partition(id);
    if (target >= partition_count()) return;
    if (executing_ >= 0 && target != executing_) {
      // Cross-partition cancel from inside a window: stage it for the
      // barrier, so the outcome does not depend on whether the target
      // partition executes before or after this one. If the event fires
      // within this same window the cancel arrives too late.
      StagedOp op;
      op.cancel = true;
      op.target = target;
      op.id = ids_.wheel_id(id);
      parts_[static_cast<std::size_t>(executing_)].staged.push_back(
          std::move(op));
      return;
    }
    parts_[static_cast<std::size_t>(target)].queue.cancel(ids_.wheel_id(id));
  }

  /// Run events until the queue drains or `deadline` is reached (whichever
  /// first). Returns the number of events executed.
  std::size_t run_until(Time deadline) {
    std::size_t n = 0;
    while (begin_window(deadline)) n += run_window(kUnlimited);
    if (now_ < deadline) now_ = deadline;
    return n;
  }

  /// Run until the event queue is empty. Guards against runaway protocols
  /// with an event-count limit.
  std::size_t run(std::size_t max_events = 100'000'000) {
    std::size_t n = 0;
    while (begin_window(kNever)) {
      const std::size_t left = max_events - n;
      n += run_window(left == kUnlimited ? kUnlimited : left + 1);
      if (n > max_events) throw std::runtime_error("simulation runaway");
    }
    return n;
  }

  bool idle() const {
    for (const Part& p : parts_) {
      if (!p.queue.empty()) return false;
    }
    return true;
  }

  // ---- The epoch-2 window protocol -------------------------------------
  //
  // run_until/run above drive these three steps; a benchmark may drive
  // them directly to time each step.

  /// Place the next execution window: start at the earliest pending event,
  /// extend by max(lookahead, 1) (truncated at `deadline`; a one-partition
  /// window always reaches `deadline`), and collect every partition with
  /// events inside it. Returns false when nothing is pending at or before
  /// `deadline`.
  bool begin_window(Time deadline) {
    assert(!in_window_ && active_.empty());
    const std::optional<Time> start = next_event_time();
    if (!start || *start > deadline) return false;
    Time we = deadline;
    if (parts_.size() > 1) {
      const Duration width = std::max<Duration>(lookahead_, 1);
      if (deadline - *start > width - 1) we = *start + width - 1;
    }
    while (!heap_.empty()) {
      const HeapEntry top = heap_.front();
      if (top.at > we) break;
      std::pop_heap(heap_.begin(), heap_.end(), heap_after);
      heap_.pop_back();
      Part& p = parts_[static_cast<std::size_t>(top.part)];
      if (p.next_cache != top.at || p.in_window) continue;  // stale / dup
      p.in_window = true;
      active_.push_back(top.part);
    }
    std::sort(active_.begin(), active_.end());
    window_end_ = we;
    in_window_ = true;
    return true;
  }

  /// Partitions collected by begin_window, ascending. Valid until the
  /// matching commit_window.
  const std::vector<int>& window_partitions() const { return active_; }

  /// Execute partition `p`'s events inside the current window, in (time,
  /// schedule order). Touches only partition-local state (wheel, RNG
  /// stream, staging list, trace buffer), so the partitions of one window
  /// may execute in any order. Same-partition schedules apply immediately
  /// (and run in this window if they land inside it); cross-partition
  /// schedules and cancels are staged for commit_window. The ambient
  /// partition is restored on return; with several partitions so is the
  /// clock, so between windows now() is the last committed window end.
  void execute_partition_window(int part) {
    execute_partition_window(part, kUnlimited);
  }

  /// Window barrier. Applies the staged cross-partition operations in
  /// ascending source-partition order (then staging order — exactly the
  /// order serial execution produces them in), merges the window's
  /// per-partition trace buffers by (time, partition) into the real trace
  /// sink, refreshes the window heap, and advances the clock to the
  /// window end (one partition: the clock stays at its last event).
  /// Returns the number of events executed in the window.
  std::size_t commit_window() {
    assert(in_window_);
    const Time we = window_end_;
    std::size_t executed = 0;
    for (int part : active_) {
      Part& p = parts_[static_cast<std::size_t>(part)];
      executed += p.executed_window;
      p.executed_window = 0;
      for (StagedOp& op : p.staged) {
        if (op.cancel) {
          parts_[static_cast<std::size_t>(op.target)].queue.cancel(op.id);
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
    for (int part : active_) {
      Part& p = parts_[static_cast<std::size_t>(part)];
      p.in_window = false;
      if (p.next_cache != kNever) heap_push(p.next_cache, part);
    }
    active_.clear();
    in_window_ = false;
    if (parts_.size() > 1) now_ = we;
    return executed;
  }

  // ----------------------------------------------------------------------

  /// Lifetime scheduling totals (see EventQueue) — the bench harness uses
  /// these as a deterministic proxy for timer-bookkeeping cost.
  std::uint64_t events_scheduled() const {
    std::uint64_t n = 0;
    for (const Part& p : parts_) n += p.queue.scheduled_total();
    return n;
  }
  std::uint64_t events_cancelled() const {
    std::uint64_t n = 0;
    for (const Part& p : parts_) n += p.queue.cancelled_total();
    return n;
  }

  /// Event-slab bytes held across every partition wheel: the engine's
  /// deterministic memory footprint (EventQueue::slab_bytes).
  std::size_t slab_bytes() const {
    std::size_t n = 0;
    for (const Part& p : parts_) n += p.queue.slab_bytes();
    return n;
  }

 private:
  static constexpr Time kNever = std::numeric_limits<Time>::max();
  static constexpr std::size_t kUnlimited =
      std::numeric_limits<std::size_t>::max();

  /// A cross-partition operation issued while a window executes, applied
  /// at the barrier.
  struct StagedOp {
    bool cancel = false;
    int target = 0;
    Time when = 0;    // schedule: absolute target time
    EventId id = 0;   // cancel: the target wheel's own id
    EventFn fn;       // schedule payload
  };

  /// Per-partition execution state.
  struct Part {
    EventQueue queue;
    Rng rng{0};
    std::uint64_t violations = 0;
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

  /// commit_traces' read position in one partition's window buffer,
  /// keyed like the partition heap by (time of the event at pos, part).
  struct Cursor : HeapEntry {
    std::size_t pos;
  };

  /// Replace the partition set. One partition keeps the root stream
  /// Rng(seed); several split it into Rng(seed, p).
  void split(int count) {
    ids_ = EventIdLayout(count);
    parts_ = std::vector<Part>(static_cast<std::size_t>(count));
    for (int p = 0; p < count; ++p) {
      parts_[static_cast<std::size_t>(p)].rng =
          count == 1 ? Rng(seed_) : Rng(seed_, static_cast<std::uint64_t>(p));
    }
    heap_.clear();
    current_ = 0;
  }

  /// Earliest pending event time across all partitions (nullopt when
  /// idle). This is where the next window will be placed.
  std::optional<Time> next_event_time() {
    while (!heap_.empty()) {
      const HeapEntry top = heap_.front();
      if (parts_[static_cast<std::size_t>(top.part)].next_cache == top.at) {
        return top.at;
      }
      std::pop_heap(heap_.begin(), heap_.end(), heap_after);
      heap_.pop_back();
    }
    return std::nullopt;
  }

  void heap_push(Time at, int part) {
    heap_.push_back(HeapEntry{at, part});
    std::push_heap(heap_.begin(), heap_.end(), heap_after);
  }

  std::size_t run_window(std::size_t budget) {
    for (int p : active_) execute_partition_window(p, budget);
    return commit_window();
  }

  /// execute_partition_window, stopping after `budget` events (run()'s
  /// runaway guard).
  void execute_partition_window(int part, std::size_t budget) {
    Part& p = parts_[static_cast<std::size_t>(part)];
    const Time we = window_end_;
    const bool single = parts_.size() == 1;
    const Time saved_now = now_;
    const int saved_current = current_;
    executing_ = part;
    // A one-partition simulator records straight into the sink: there is
    // nothing to merge. With several partitions every record waits for
    // commit_window, even in a window only one of them is active in, so
    // observer calls always run at the barrier.
    if (!single) trace_.set_buffer(&p.buffer);
    auto leave = [&] {
      trace_.set_buffer(nullptr);
      executing_ = -1;
      current_ = saved_current;
      if (!single) now_ = saved_now;
    };
    std::size_t n = 0;
    try {
      while (n < budget && !p.queue.empty() &&
             (we == kNever || p.queue.next_time() <= we)) {
        auto [at, fn] = p.queue.pop();
        now_ = at;
        current_ = part;  // events inherit their executor's wheel
        fn();
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

  template <typename F>
  EventId schedule_abs(Time when, Duration delay, F&& fn) {
    const int target = current_;
    if (executing_ >= 0) {
      if (target == executing_) {
        // Same-partition: apply directly. No heap push — the partition is
        // active in this window and commit_window re-pushes its head.
        return insert(target, when, std::forward<F>(fn));
      }
      // Cross-partition from inside a window: stage for the barrier. The
      // returned id is 0 — the event cannot be cancelled until it has
      // materialized in the target wheel (after the next barrier).
      Part& src = parts_[static_cast<std::size_t>(executing_)];
      if (delay < lookahead_) ++src.violations;
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
    const EventId id = insert(target, when, std::forward<F>(fn));
    Part& p = parts_[static_cast<std::size_t>(target)];
    // The heap needs an entry matching the (possibly improved) head.
    if (p.next_cache == when && !p.in_window) heap_push(when, target);
    return id;
  }

  template <typename F>
  EventId insert(int target, Time when, F&& fn) {
    Part& p = parts_[static_cast<std::size_t>(target)];
    const EventId wheel_id = p.queue.schedule(when, std::forward<F>(fn));
    if (when < p.next_cache) p.next_cache = when;
    return ids_.pack(target, wheel_id);
  }

  /// Merge the window's per-partition trace buffers by (time, partition)
  /// and replay them through the real sink (observer, retention,
  /// counters) — the canonical epoch-2 commit order. Each buffer is
  /// time-ordered already (a partition records at its own clock, which
  /// only rises inside a window), so a k-way merge on a heap of buffer
  /// cursors keyed (time, partition) yields exactly the stable sort of
  /// the partition-ordered concatenation, without copying an event or
  /// allocating once the cursor heap has grown to the widest window.
  void commit_traces() {
    cursors_.clear();
    for (int part : active_) {
      const std::vector<TraceEvent>& b =
          parts_[static_cast<std::size_t>(part)].buffer;
      if (!b.empty()) cursors_.push_back(Cursor{{b.front().at, part}, 0});
    }
    if (cursors_.size() == 1) {
      std::vector<TraceEvent>& b =
          parts_[static_cast<std::size_t>(cursors_.front().part)].buffer;
      for (const TraceEvent& e : b) trace_.commit(e);
      b.clear();
      return;
    }
    std::make_heap(cursors_.begin(), cursors_.end(), heap_after);
    while (!cursors_.empty()) {
      std::pop_heap(cursors_.begin(), cursors_.end(), heap_after);
      Cursor& c = cursors_.back();
      std::vector<TraceEvent>& b =
          parts_[static_cast<std::size_t>(c.part)].buffer;
      trace_.commit(b[c.pos]);
      if (++c.pos < b.size()) {
        assert(b[c.pos].at >= c.at);
        c.at = b[c.pos].at;
        std::push_heap(cursors_.begin(), cursors_.end(), heap_after);
      } else {
        b.clear();
        cursors_.pop_back();
      }
    }
  }

  std::uint64_t seed_;
  Time now_ = 0;
  Trace trace_;
  stats::MetricsHub metrics_;
  std::vector<Part> parts_;
  EventIdLayout ids_;
  std::vector<HeapEntry> heap_;  // lazy min-heap of partition heads
  std::vector<int> active_;      // partitions in the current window
  Duration lookahead_ = 0;
  Time window_end_ = 0;
  bool in_window_ = false;
  int current_ = 0;     // ambient partition for new schedules
  int executing_ = -1;  // partition inside execute_partition_window, or -1
  std::vector<Cursor> cursors_;  // commit_traces merge heap
};

/// Pin the ambient partition for the current scope: topology constructors
/// (node roots) and fault injectors wrap themselves in one so events land
/// on the wheel of the component that owns them. A no-op on a
/// one-partition simulator.
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
