// Pooled, refcounted, immutable frames for the broadcast-bus hot path.
//
// A broadcast on an N-station bus used to copy the Frame once per
// receiver (plus once more into the delivery closure): O(N) allocations
// and payload copies per send. FramePool hands out FrameRef handles to a
// single immutable Frame instead — every receiver's delivery event shares
// the same storage, and the slab recycles nodes so steady-state traffic
// stops allocating. Corruption (a fault hook's `damage` fate) is
// per-delivery metadata carried alongside the ref, never a mutation of
// the shared frame, so no copy-on-write is needed today; a future
// mutating fault would copy the frame into a fresh pooled node (CoW)
// rather than touch the shared one.
//
// Lifetime: delivery events legitimately outlive the Bus (core::Network
// tears its buses down while the simulator still holds scheduled events
// whose closures own FrameRefs). The pool's core is therefore heap-
// allocated and reference-counted by the pool handle plus every live
// FrameRef; whichever dies last frees it.
//
// Storage: nodes live in fixed-size chunks that never move once
// allocated, so a `const Frame&` taken from a FrameRef stays valid while
// a delivery callback sends (and grows the slab). A pool and its refs
// belong to one Simulator and are touched by one thread, so counts are
// plain integers.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "net/packet.h"

namespace soda::net {

namespace detail {

struct FramePoolCore {
  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr int kChunkBits = 8;
  static constexpr std::uint32_t kChunkNodes = 1u << kChunkBits;  // 256
  static constexpr std::uint32_t kChunkMask = kChunkNodes - 1;

  struct Node {
    Frame frame;
    std::uint32_t refs = 0;
    std::uint32_t next_free = kNil;
  };

  std::vector<std::unique_ptr<Node[]>> chunks;
  std::uint32_t size = 0;
  std::uint32_t free_head = kNil;
  // 1 for the FramePool handle + 1 per live FrameRef.
  std::uint64_t owners = 1;

  Node& node(std::uint32_t i) {
    return chunks[i >> kChunkBits][i & kChunkMask];
  }

  /// Drop one owner; frees the core when it was the last.
  static void release_owner(FramePoolCore* core) {
    if (--core->owners == 0) delete core;
  }
};

}  // namespace detail

/// Shared-ownership handle to an immutable pooled Frame. Copying is a
/// refcount bump; the node returns to the pool's free list when the last
/// ref drops.
class FrameRef {
 public:
  FrameRef() = default;
  FrameRef(const FrameRef& o) : core_(o.core_), idx_(o.idx_) {
    if (core_ != nullptr) {
      ++core_->node(idx_).refs;
      ++core_->owners;
    }
  }
  FrameRef(FrameRef&& o) noexcept : core_(o.core_), idx_(o.idx_) {
    o.core_ = nullptr;
  }
  FrameRef& operator=(const FrameRef& o) {
    FrameRef tmp(o);
    swap(tmp);
    return *this;
  }
  FrameRef& operator=(FrameRef&& o) noexcept {
    swap(o);
    return *this;
  }
  ~FrameRef() { release(); }

  void swap(FrameRef& o) noexcept {
    std::swap(core_, o.core_);
    std::swap(idx_, o.idx_);
  }

  explicit operator bool() const { return core_ != nullptr; }
  const Frame& operator*() const { return core_->node(idx_).frame; }
  const Frame* operator->() const { return &core_->node(idx_).frame; }
  const Frame* get() const {
    return core_ == nullptr ? nullptr : &core_->node(idx_).frame;
  }

  void reset() {
    release();
    core_ = nullptr;
  }

 private:
  friend class FramePool;
  FrameRef(detail::FramePoolCore* core, std::uint32_t idx)
      : core_(core), idx_(idx) {}

  void release() {
    if (core_ == nullptr) return;
    auto& node = core_->node(idx_);
    if (--node.refs == 0) {
      // Last ref: reset the sections but keep the payload vector's buffer,
      // so a reused node can often take the next frame without
      // reallocating.
      std::vector<std::byte> data = std::move(node.frame.data);
      data.clear();
      node.frame = Frame{};
      node.frame.data = std::move(data);
      node.next_free = core_->free_head;
      core_->free_head = idx_;
    }
    detail::FramePoolCore::release_owner(core_);
  }

  detail::FramePoolCore* core_ = nullptr;
  std::uint32_t idx_ = 0;
};

class FramePool {
 public:
  FramePool() : core_(new detail::FramePoolCore) {}
  ~FramePool() { detail::FramePoolCore::release_owner(core_); }
  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;

  /// Move `f` into a pooled node and return the first ref to it.
  FrameRef make(Frame&& f) {
    detail::FramePoolCore& core = *core_;
    std::uint32_t idx;
    if (core.free_head != detail::FramePoolCore::kNil) {
      idx = core.free_head;
      core.free_head = core.node(idx).next_free;
    } else {
      idx = core.size++;
      if ((idx & detail::FramePoolCore::kChunkMask) == 0) {
        core.chunks.push_back(std::make_unique<detail::FramePoolCore::Node[]>(
            detail::FramePoolCore::kChunkNodes));
      }
    }
    auto& node = core.node(idx);
    // Preserve the recycled node's payload capacity when the incoming
    // frame has no payload of its own (the common control-frame case).
    if (f.data.empty() && node.frame.data.capacity() > 0) {
      std::vector<std::byte> keep = std::move(node.frame.data);
      keep.clear();
      node.frame = std::move(f);
      node.frame.data = std::move(keep);
    } else {
      node.frame = std::move(f);
    }
    node.refs = 1;
    ++core.owners;
    return FrameRef(core_, idx);
  }

  /// Nodes ever created (slab high-water mark) — bench/telemetry hook.
  std::size_t slab_nodes() const { return core_->size; }

 private:
  detail::FramePoolCore* core_;
};

}  // namespace soda::net
