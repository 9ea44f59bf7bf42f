// A deterministic discrete-event queue built as a hierarchical timer
// wheel (the classic kernel-timer design) instead of a binary heap of
// heap-allocated std::function closures.
//
// Determinism contract (doc/PERFORMANCE.md): events scheduled for the
// same instant fire in the order they were scheduled (FIFO tie-break on
// a monotone sequence number), and pop order is a pure function of the
// schedule/cancel call sequence. An engine change may alter wall-clock
// speed and memory layout, but never the (time, seq) pop order — that is
// what keeps trace hashes bit-identical across engine rewrites.
//
// Layout: kLevels levels of kSlots slots each; level L buckets events
// whose distance from `base_` is under kSlots^(L+1) ticks, so level 0
// resolves single microseconds and the whole wheel covers ~19 simulated
// hours. Each level keeps a 64-bit occupancy bitmap; finding the next
// pending slot is a rotate + countr_zero, and advancing the clock is a
// cascade of the earliest occupied slot into the levels below it. Events
// live in a slab of fixed-size cells (intrusive free list, generation
// tags for O(1) cancel) whose callbacks are stored inline up to
// EventFn::kInlineBytes — the steady-state schedule/cancel/pop cycle
// performs no heap allocation (bench_sim_engine --check-allocs).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.h"

namespace soda::sim {

/// Identifies a scheduled event so it can be cancelled. Encodes a slab
/// cell index plus a generation tag; generations start at 1, so a
/// default-initialized id (0) never matches a live event.
using EventId = std::uint64_t;

/// Move-only callable with inline storage for small captures. Event
/// callbacks in the protocol hot path capture at most a few pointers and
/// a HandlerArgs (~64 bytes), so kInlineBytes keeps them allocation-free;
/// larger captures spill to the heap (counted, so benches can assert the
/// hot path never does).
class EventFn {
 public:
  static constexpr std::size_t kInlineBytes = 96;

  EventFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, EventFn>>>
  EventFn(F&& fn) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(fn));
  }

  EventFn(EventFn&& o) noexcept { move_from(o); }
  EventFn& operator=(EventFn&& o) noexcept {
    if (this != &o) {
      reset();
      move_from(o);
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  explicit operator bool() const { return vt_ != nullptr; }

  void operator()() { vt_->invoke(buf_); }

  void reset() {
    if (vt_ != nullptr) {
      vt_->destroy(buf_);
      vt_ = nullptr;
    }
  }

  /// True when the wrapped callable spilled to the heap.
  bool heap_allocated() const { return vt_ != nullptr && vt_->heap; }

  /// Construct the callable directly in this object's storage — one
  /// placement-new instead of a temporary plus a vtable relocate. The
  /// schedule() hot path assigns into recycled cells with this.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, EventFn>>>
  void assign(F&& fn) {
    reset();
    emplace(std::forward<F>(fn));
  }

  /// Assigning an already-wrapped EventFn relocates it instead of
  /// wrapping it again (the staged cross-partition ops applied at the
  /// window barrier re-schedule stored EventFns this way).
  void assign(EventFn&& fn) { *this = std::move(fn); }

 private:
  struct VTable {
    void (*invoke)(void*);
    void (*relocate)(void* dst, void* src);  // move dst <- src, destroy src
    void (*destroy)(void*);
    bool heap;
  };

  template <typename F>
  void emplace(F&& fn) {
    using D = std::decay_t<F>;
    if constexpr (sizeof(D) <= kInlineBytes &&
                  alignof(D) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(fn));
      static const VTable vt = {
          [](void* p) { (*static_cast<D*>(p))(); },
          [](void* dst, void* src) {
            ::new (dst) D(std::move(*static_cast<D*>(src)));
            static_cast<D*>(src)->~D();
          },
          [](void* p) { static_cast<D*>(p)->~D(); },
          false,
      };
      vt_ = &vt;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(fn)));
      static const VTable vt = {
          [](void* p) { (**static_cast<D**>(p))(); },
          [](void* dst, void* src) { std::memcpy(dst, src, sizeof(D*)); },
          [](void* p) { delete *static_cast<D**>(p); },
          true,
      };
      vt_ = &vt;
    }
  }

  void move_from(EventFn& o) {
    vt_ = o.vt_;
    if (vt_ != nullptr) {
      vt_->relocate(buf_, o.buf_);
      o.vt_ = nullptr;
    }
  }

  const VTable* vt_ = nullptr;
  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
};

class EventQueue {
 public:
  /// Schedule `fn` to run at absolute time `at`. Returns an id usable with
  /// cancel(). `at` must not be in the past relative to the last popped
  /// event (enforced by Simulator, not here).
  template <typename F>
  EventId schedule(Time at, F&& fn) {
    const std::uint32_t idx = alloc_cell();
    Cell& c = cells_[idx];
    c.at = at;
    c.seq = seq_next_++;
    c.fn.assign(std::forward<F>(fn));
    if (c.fn.heap_allocated()) ++sbo_spills_;
    ++live_;
    insert(idx);
    return make_id(idx, c.gen);
  }

  /// Cancel a previously scheduled event: O(1) generation check, callback
  /// destroyed immediately. Cancelling an event that already ran (or was
  /// already cancelled) is a harmless no-op — the generation tag retired
  /// with the cell, so no per-id state accumulates across the run.
  void cancel(EventId id) {
    const auto idx = static_cast<std::uint32_t>(id);
    const auto gen = static_cast<std::uint32_t>(id >> 32);
    if (idx >= cells_.size()) return;
    Cell& c = cells_[idx];
    if (c.gen != gen || !c.fn) return;
    c.fn.reset();  // cell is lazily reclaimed when its slot activates
    ++cancelled_count_;
    assert(live_ > 0);
    --live_;
  }

  bool empty() const { return live_ == 0; }

  /// Lifetime totals. Timer-churn optimisations (lazy Delta-t expiry,
  /// the kernel probe wheel) show up here as fewer schedules/cancels for
  /// the same protocol behaviour — a wall-clock-noise-immune metric.
  std::uint64_t scheduled_total() const { return seq_next_; }
  std::uint64_t cancelled_total() const { return cancelled_count_; }

  /// Callbacks too large for EventFn's inline buffer (each one cost a
  /// heap allocation). Zero across the protocol stack; benches assert it.
  std::uint64_t sbo_spill_total() const { return sbo_spills_; }

  /// Bytes of cell storage the slab holds: whole chunks, so a wheel that
  /// ever held one event pays one chunk. Deterministic — a function of the
  /// schedule/cancel/pop sequence alone.
  std::size_t slab_bytes() const { return cells_.bytes(); }

  /// Earliest pending event time; only valid when !empty().
  Time next_time() {
    const bool ok = prepare();
    assert(ok);
    (void)ok;
    return has_front() ? cells_[front_[front_pos_]].at : ready_time_;
  }

  /// Pop and return the earliest pending event. Only valid when !empty().
  std::pair<Time, EventFn> pop() {
    const bool ok = prepare();
    assert(ok);
    (void)ok;
    std::uint32_t idx;
    if (has_front()) {
      idx = front_[front_pos_++];
    } else {
      idx = ready_[ready_pos_++];
    }
    Cell& c = cells_[idx];
    std::pair<Time, EventFn> out{c.at, std::move(c.fn)};
    retire(idx);
    assert(live_ > 0);
    --live_;
    return out;
  }

 private:
  static constexpr int kSlotBits = 6;
  static constexpr std::size_t kSlots = std::size_t{1} << kSlotBits;  // 64
  static constexpr std::uint64_t kSlotMask = kSlots - 1;
  static constexpr int kLevels = 6;  // horizon 2^36 us ~ 19 sim-hours
  static constexpr std::uint32_t kNil = 0xffffffffu;

  // 128 bytes/cell: 24 of bookkeeping + 104 of callback storage. An empty
  // fn marks a cancelled (or free) cell awaiting lazy reclamation.
  struct Cell {
    Time at = 0;
    std::uint64_t seq = 0;
    std::uint32_t next = kNil;  // slot chain / free list link
    std::uint32_t gen = 1;      // bumped on retire; 0 never matches
    EventFn fn;
  };

  struct Level {
    std::array<std::uint32_t, kSlots> head;
    std::uint64_t bitmap = 0;
    Level() { head.fill(kNil); }
  };

  static EventId make_id(std::uint32_t idx, std::uint32_t gen) {
    return (std::uint64_t{gen} << 32) | idx;
  }

  /// Forward distance (0..63) from slot `cur` to the nearest occupied
  /// slot at or after it.
  static int forward_distance(std::uint64_t bitmap, std::uint64_t cur) {
    return std::countr_zero(std::rotr(bitmap, static_cast<int>(cur)));
  }

  std::uint32_t alloc_cell() {
    if (free_head_ != kNil) {
      const std::uint32_t idx = free_head_;
      free_head_ = cells_[idx].next;
      return idx;
    }
    return cells_.push();
  }

  /// Return a fired/cancelled cell to the free list and invalidate its
  /// outstanding EventId.
  void retire(std::uint32_t idx) {
    Cell& c = cells_[idx];
    c.fn.reset();
    if (++c.gen == 0) c.gen = 1;
    c.next = free_head_;
    free_head_ = idx;
  }

  /// File a live cell by its distance from base_. Three destinations:
  /// the past-due front list (run_until overshot the next event time and
  /// something was scheduled before the pre-activated tick), the active
  /// ready tick (same-instant FIFO append), or a wheel slot / overflow.
  void insert(std::uint32_t idx) {
    Cell& c = cells_[idx];
    const Time t = c.at;
    if (t < base_) {
      const auto cmp = [this](std::uint32_t a, std::uint32_t b) {
        const Cell& x = cells_[a];
        const Cell& y = cells_[b];
        if (x.at != y.at) return x.at < y.at;
        return x.seq < y.seq;
      };
      front_.insert(
          std::upper_bound(
              front_.begin() + static_cast<std::ptrdiff_t>(front_pos_),
              front_.end(), idx, cmp),
          idx);
      return;
    }
    if (ready_active_ && t == ready_time_) {
      ready_.push_back(idx);  // seq is monotone, so FIFO order is kept
      return;
    }
    // Pick the level by slot distance, not raw delta: with base_ mid-slot,
    // a raw-delta bound can alias the target onto the slot at the current
    // position one revolution away, which would cascade in place forever.
    for (int level = 0; level < kLevels; ++level) {
      const int shift = kSlotBits * level;
      const std::uint64_t slot_distance =
          (static_cast<std::uint64_t>(t) >> shift) -
          (static_cast<std::uint64_t>(base_) >> shift);
      if (slot_distance < kSlots) {
        const auto slot = (static_cast<std::uint64_t>(t) >> shift) & kSlotMask;
        c.next = levels_[level].head[slot];
        levels_[level].head[slot] = idx;
        levels_[level].bitmap |= std::uint64_t{1} << slot;
        return;
      }
    }
    c.next = overflow_head_;
    overflow_head_ = idx;
    if (overflow_count_ == 0 || t < overflow_min_) overflow_min_ = t;
    ++overflow_count_;
  }

  bool has_front() const { return front_pos_ < front_.size(); }
  bool has_ready() const { return ready_pos_ < ready_.size(); }

  void skip_cancelled() {
    while (has_front() && !cells_[front_[front_pos_]].fn) {
      retire(front_[front_pos_++]);
    }
    if (!has_front() && !front_.empty()) {
      front_.clear();
      front_pos_ = 0;
    }
    while (has_ready() && !cells_[ready_[ready_pos_]].fn) {
      retire(ready_[ready_pos_++]);
    }
  }

  /// Ensure the earliest live event is at the head of front_ or ready_.
  /// Returns false when the queue is empty.
  bool prepare() {
    for (;;) {
      skip_cancelled();
      if (has_front() || has_ready()) return true;
      if (live_ == 0) return false;
      advance_structure();
    }
  }

  /// One structural step toward the next live event: merge the overflow
  /// list, cascade the earliest higher-level slot, or activate the next
  /// level-0 slot into the ready list. Each step strictly reduces the
  /// distance of the earliest event from level 0, so prepare() terminates.
  void advance_structure() {
    ready_.clear();
    ready_pos_ = 0;
    ready_active_ = false;

    constexpr Time kInf = std::numeric_limits<Time>::max();
    Time t0 = kInf;
    if (levels_[0].bitmap != 0) {
      const std::uint64_t cur = static_cast<std::uint64_t>(base_) & kSlotMask;
      t0 = base_ + forward_distance(levels_[0].bitmap, cur);
    }
    // Earliest occupied slot across the cascade levels. A slot placed when
    // base_ was far away can cover times earlier than a nearer slot at a
    // lower level, so all levels compete on slot start, not level order.
    int cascade_level = -1;
    std::uint64_t cascade_target = 0;
    Time cascade_key = kInf;
    for (int level = 1; level < kLevels; ++level) {
      if (levels_[level].bitmap == 0) continue;
      const int shift = kSlotBits * level;
      const std::uint64_t pos = static_cast<std::uint64_t>(base_) >> shift;
      const std::uint64_t target =
          pos + forward_distance(levels_[level].bitmap, pos & kSlotMask);
      const Time key = static_cast<Time>(target << shift);
      if (key < cascade_key) {
        cascade_key = key;
        cascade_level = level;
        cascade_target = target;
      }
    }
    const Time overflow_key = overflow_head_ == kNil ? kInf : overflow_min_;

    if (overflow_key <= std::min(t0, cascade_key)) {
      rebase_overflow();
      return;
    }
    if (cascade_level >= 0 && cascade_key <= t0) {
      cascade(cascade_level, cascade_target);
      return;
    }
    assert(t0 != kInf);
    activate(t0);
  }

  /// Detach the given higher-level slot and redistribute its cells into
  /// lower levels (cancelled cells are reclaimed instead of moved).
  void cascade(int level, std::uint64_t target) {
    const int shift = kSlotBits * level;
    const auto slot = target & kSlotMask;
    std::uint32_t chain = levels_[level].head[slot];
    levels_[level].head[slot] = kNil;
    levels_[level].bitmap &= ~(std::uint64_t{1} << slot);
    const Time slot_start = static_cast<Time>(target << shift);
    if (slot_start > base_) base_ = slot_start;
    while (chain != kNil) {
      const std::uint32_t nxt = cells_[chain].next;
      if (!cells_[chain].fn) {
        retire(chain);
      } else {
        insert(chain);
      }
      chain = nxt;
    }
  }

  /// Merge the overflow list back into the wheel. Only called when
  /// overflow_min_ is the global minimum pending time, so jumping base_
  /// to it is safe and guarantees at least its cell lands in the wheel.
  void rebase_overflow() {
    std::uint32_t chain = overflow_head_;
    overflow_head_ = kNil;
    overflow_count_ = 0;
    if (overflow_min_ > base_) base_ = overflow_min_;
    overflow_min_ = 0;
    while (chain != kNil) {
      const std::uint32_t nxt = cells_[chain].next;
      if (!cells_[chain].fn) {
        retire(chain);
      } else {
        insert(chain);
      }
      chain = nxt;
    }
  }

  /// Turn the level-0 slot holding time t0 into the active ready tick.
  /// Every live level-0 cell lies within kSlots ticks of base_, so one
  /// slot holds exactly one timestamp; sorting by seq restores global
  /// FIFO order for cells that cascaded in from different levels.
  void activate(Time t0) {
    const auto slot = static_cast<std::uint64_t>(t0) & kSlotMask;
    std::uint32_t chain = levels_[0].head[slot];
    levels_[0].head[slot] = kNil;
    levels_[0].bitmap &= ~(std::uint64_t{1} << slot);
    base_ = t0;
    while (chain != kNil) {
      const std::uint32_t nxt = cells_[chain].next;
      if (!cells_[chain].fn) {
        retire(chain);
      } else {
        assert(cells_[chain].at == t0);
        ready_.push_back(chain);
      }
      chain = nxt;
    }
    if (ready_.size() > 1) {
      std::sort(ready_.begin(), ready_.end(),
                [this](std::uint32_t a, std::uint32_t b) {
                  return cells_[a].seq < cells_[b].seq;
                });
    }
    ready_active_ = true;
    ready_time_ = t0;
  }

  /// Slab: stable addresses, O(1) index access, intrusive free list.
  /// A chunked array rather than std::deque — libstdc++ deque nodes hold
  /// only four 128-byte cells, so cells_[idx] there is a two-level lookup
  /// through a sprawling block map; fixed chunks make it one indirection.
  /// Chunks are 64 cells (8 KiB), sized to one partition wheel: every node
  /// of a single-bus topology owns a wheel whose standing population is a
  /// few dozen timers, and the first schedule value-initialises a whole
  /// chunk, so 1024-cell chunks cost 128 KiB per node before it held one
  /// event (doc/PERFORMANCE.md §1). Chunks never move or shrink, so Cell
  /// references stay valid across growth (alloc during a running callback
  /// is safe).
  class Slab {
   public:
    Cell& operator[](std::uint32_t i) {
      return chunks_[i >> kChunkBits][i & kChunkMask];
    }
    const Cell& operator[](std::uint32_t i) const {
      return chunks_[i >> kChunkBits][i & kChunkMask];
    }
    std::uint32_t size() const { return size_; }
    std::size_t bytes() const {
      return chunks_.size() * kChunkCells * sizeof(Cell);
    }
    /// Append a default-constructed cell; returns its index.
    std::uint32_t push() {
      if ((size_ >> kChunkBits) == chunks_.size()) {
        chunks_.push_back(std::make_unique<Cell[]>(kChunkCells));
      }
      return size_++;
    }

   private:
    static constexpr int kChunkBits = 6;
    static constexpr std::uint32_t kChunkCells = 1u << kChunkBits;
    static constexpr std::uint32_t kChunkMask = kChunkCells - 1;
    std::vector<std::unique_ptr<Cell[]>> chunks_;
    std::uint32_t size_ = 0;
  };

  Slab cells_;
  std::uint32_t free_head_ = kNil;

  std::array<Level, kLevels> levels_;
  Time base_ = 0;  // wheel origin; never exceeds the earliest pending event

  // Active tick: cell indices for time ready_time_, FIFO by seq.
  std::vector<std::uint32_t> ready_;
  std::size_t ready_pos_ = 0;
  Time ready_time_ = 0;
  bool ready_active_ = false;

  // Past-due events (scheduled before an already-activated future tick),
  // sorted by (at, seq). Rare; only fed after run_until overshoot.
  std::vector<std::uint32_t> front_;
  std::size_t front_pos_ = 0;

  // Events beyond the wheel horizon, as an intrusive list with min cache.
  std::uint32_t overflow_head_ = kNil;
  std::size_t overflow_count_ = 0;
  Time overflow_min_ = 0;

  std::uint64_t seq_next_ = 0;
  std::size_t live_ = 0;
  std::uint64_t cancelled_count_ = 0;
  std::uint64_t sbo_spills_ = 0;
};

}  // namespace soda::sim
