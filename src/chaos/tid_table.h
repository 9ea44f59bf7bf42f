// Flat per-node and per-(node, tid) state for the standard chaos checkers
// (chaos/invariants.h): what a checker remembers about every request of a
// run, in arrays rather than one tree node per request.
//
// A kernel numbers its requests from a counter that only rises (§5.4), so
// one node's tids form a few long runs of consecutive values: one run per
// simulated kernel, and one per incarnation in the real-process fleet,
// which starts incarnation k at tid 1 + k * 2^20. TidTable stores each run
// as an array of per-tid slots and starts a new run at a jump. Tids that
// arrive below a run already started (out of order, negative, or in the
// gap between two runs) go to an exact ordered fallback, so any event
// stream gets the answer an ordered map would give.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

namespace soda::chaos {

/// Per-node state: a dense array indexed by the node ids a topology hands
/// out (0, 1, 2, ...), an ordered map for any other id.
template <typename T>
class NodeTable {
 public:
  T& operator[](int node) {
    if (node >= 0 && node < kDenseNodes) {
      const auto i = static_cast<std::size_t>(node);
      if (i >= dense_.size()) dense_.resize(i + 1);
      return dense_[i];
    }
    return sparse_[node];
  }

  /// The node's state, or nullptr when it was never touched.
  T* find(int node) {
    if (node >= 0 && node < kDenseNodes) {
      const auto i = static_cast<std::size_t>(node);
      return i < dense_.size() ? &dense_[i] : nullptr;
    }
    auto it = sparse_.find(node);
    return it == sparse_.end() ? nullptr : &it->second;
  }

  /// Visit (node, state) in ascending node order. Dense ids below the
  /// highest one touched are visited with their default state.
  template <typename F>
  void for_each(F&& f) const {
    auto it = sparse_.begin();
    for (; it != sparse_.end() && it->first < 0; ++it) f(it->first, it->second);
    for (std::size_t i = 0; i < dense_.size(); ++i) {
      f(static_cast<int>(i), dense_[i]);
    }
    for (; it != sparse_.end(); ++it) f(it->first, it->second);
  }

 private:
  static constexpr int kDenseNodes = 4096;
  std::vector<T> dense_;
  std::map<int, T> sparse_;
};

/// Per-(node, tid) state. T{} must mean "nothing recorded": a run's slots
/// for tids that never appeared hold it.
template <typename T>
class TidTable {
 public:
  /// The slot of (node, tid), created on first touch.
  T& at(int node, std::int32_t tid) {
    Runs& r = nodes_[node];
    if (!r.runs.empty()) {
      Run& last = r.runs.back();
      const std::int64_t off = std::int64_t{tid} - last.first;
      const auto size = static_cast<std::int64_t>(last.slots.size());
      if (off >= 0 && off < size + kMaxGap) {
        if (off >= size) last.slots.resize(static_cast<std::size_t>(off) + 1);
        return last.slots[static_cast<std::size_t>(off)];
      }
      if (off < 0) {
        if (T* slot = in_runs(r, tid)) return *slot;
        return r.stray[tid];
      }
    }
    r.runs.push_back(Run{tid, std::vector<T>(1)});
    return r.runs.back().slots.front();
  }

  /// The slot of (node, tid), or nullptr when it was never touched.
  T* find(int node, std::int32_t tid) {
    Runs* r = nodes_.find(node);
    if (r == nullptr) return nullptr;
    if (T* slot = in_runs(*r, tid)) return slot;
    auto it = r->stray.find(tid);
    return it == r->stray.end() ? nullptr : &it->second;
  }

  /// Visit (node, tid, slot) for every slot in ascending (node, tid)
  /// order, untouched run slots included.
  template <typename F>
  void for_each(F&& f) const {
    nodes_.for_each([&f](int node, const Runs& r) {
      auto it = r.stray.begin();
      for (const Run& run : r.runs) {
        for (; it != r.stray.end() && it->first < run.first; ++it) {
          f(node, it->first, it->second);
        }
        for (std::size_t i = 0; i < run.slots.size(); ++i) {
          f(node, static_cast<std::int32_t>(run.first + std::int64_t(i)),
            run.slots[i]);
        }
      }
      for (; it != r.stray.end(); ++it) f(node, it->first, it->second);
    });
  }

 private:
  /// Gap, in tids, a run may bridge with untouched slots before a jump
  /// starts a new run instead.
  static constexpr std::int64_t kMaxGap = 64;

  /// Slots for tids first, first + 1, ...
  struct Run {
    std::int64_t first = 0;
    std::vector<T> slots;
  };
  /// One node's runs, disjoint and ascending, plus the tids no run covers.
  /// A run only ever grows upward from the last one, and a tid lands in
  /// `stray` only when it lies below the last run's start, so no run ever
  /// covers a stray tid.
  struct Runs {
    std::vector<Run> runs;
    std::map<std::int32_t, T> stray;
  };

  static T* in_runs(Runs& r, std::int32_t tid) {
    auto it = std::upper_bound(
        r.runs.begin(), r.runs.end(), std::int64_t{tid},
        [](std::int64_t t, const Run& run) { return t < run.first; });
    if (it == r.runs.begin()) return nullptr;
    Run& run = *--it;
    const std::int64_t off = std::int64_t{tid} - run.first;
    if (off >= static_cast<std::int64_t>(run.slots.size())) return nullptr;
    return &run.slots[static_cast<std::size_t>(off)];
  }

  NodeTable<Runs> nodes_;
};

}  // namespace soda::chaos
