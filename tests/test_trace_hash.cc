// Pins chaos::hash_event — the FNV-1a fold behind every pinned trace hash —
// to a plain byte-at-a-time FNV-1a reference kept here, so a shortcut in
// the production fold can never change a hash: edge field values, every
// category and status, both detail alternatives and a large random sample.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "chaos/runner.h"
#include "sim/trace.h"

namespace soda::chaos {
namespace {

using sim::TraceCategory;
using sim::TraceEvent;
using sim::TraceStatus;

/// FNV-1a over the eight little-endian bytes of `v`, one byte at a time.
std::uint64_t reference_fnv_u64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

/// The event fold as the pinned hashes define it: ten fields, each
/// sign-extended to 64 bits, detail -1 when absent.
std::uint64_t reference_hash_event(std::uint64_t h, const TraceEvent& e) {
  const auto s64 = [](std::int64_t v) { return static_cast<std::uint64_t>(v); };
  const std::int64_t detail =
      std::holds_alternative<std::int64_t>(e.detail)
          ? std::get<std::int64_t>(e.detail)
          : -1;
  h = reference_fnv_u64(h, s64(e.at));
  h = reference_fnv_u64(h, static_cast<std::uint64_t>(e.category));
  h = reference_fnv_u64(h, s64(e.node));
  h = reference_fnv_u64(h, s64(e.peer));
  h = reference_fnv_u64(h, s64(e.tid));
  h = reference_fnv_u64(h, s64(e.pattern));
  h = reference_fnv_u64(h, s64(e.size));
  h = reference_fnv_u64(h, static_cast<std::uint64_t>(e.sections));
  h = reference_fnv_u64(h, static_cast<std::uint64_t>(e.status));
  h = reference_fnv_u64(h, s64(detail));
  return h;
}

constexpr TraceStatus kLastStatus = TraceStatus::kLoadAbandoned;

TEST(TraceHash, FieldFoldMatchesBytewiseFnvOnEdgeValues) {
  const std::uint64_t edges[] = {
      0, 1, 0xff, 0x100, 0xffff, 0x10000, 0x7fffffff, 0x80000000,
      0xffffffff, 0x100000000, std::numeric_limits<std::uint64_t>::max(),
      std::numeric_limits<std::uint64_t>::max() - 1,
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::min()),
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()),
      0xff00000000000000, 0x00ff00ff00ff00ff};
  // Seeds cover every low byte: the all-ones fold is table-driven on it.
  for (std::uint64_t seed = 0; seed < 512; ++seed) {
    const std::uint64_t h = kTraceHashSeed * (seed + 1) + seed;
    for (std::uint64_t v : edges) {
      ASSERT_EQ(fnv_u64(h, v), reference_fnv_u64(h, v))
          << "h=" << h << " v=" << v;
    }
  }
}

TEST(TraceHash, EventFoldMatchesReferenceOnEdgeFields) {
  const std::int64_t wide[] = {0,
                               -1,
                               -2,
                               -255,
                               -256,
                               -257,
                               1,
                               255,
                               256,
                               std::numeric_limits<std::int64_t>::min(),
                               std::numeric_limits<std::int64_t>::max()};
  const std::int32_t narrow[] = {0,
                                 -1,
                                 -2,
                                 -128,
                                 -129,
                                 1,
                                 127,
                                 128,
                                 std::numeric_limits<std::int32_t>::min(),
                                 std::numeric_limits<std::int32_t>::max()};
  std::uint64_t h = kTraceHashSeed;
  std::uint64_t ref = kTraceHashSeed;
  for (std::int64_t at : wide) {
    for (std::int32_t v : narrow) {
      for (std::int64_t d : wide) {
        TraceEvent e;
        e.at = at;
        e.node = v;
        e.peer = ~v;
        e.tid = v;
        e.pattern = v ^ 0x55;
        e.size = v;
        e.sections = static_cast<std::uint16_t>(v);
        e.detail = d;
        h = hash_event(h, e);
        ref = reference_hash_event(ref, e);
        ASSERT_EQ(h, ref) << "at=" << at << " v=" << v << " detail=" << d;
        e.detail = std::monostate{};
        h = hash_event(h, e);
        ref = reference_hash_event(ref, e);
        ASSERT_EQ(h, ref) << "at=" << at << " v=" << v << " no detail";
      }
    }
  }
}

TEST(TraceHash, EventFoldMatchesReferenceForEveryCategoryAndStatus) {
  std::uint64_t h = kTraceHashSeed;
  std::uint64_t ref = kTraceHashSeed;
  for (std::size_t c = 0; c < sim::kNumTraceCategories; ++c) {
    for (std::size_t s = 0; s <= static_cast<std::size_t>(kLastStatus); ++s) {
      TraceEvent e;
      e.at = static_cast<sim::Time>(c * 1000 + s);
      e.category = static_cast<TraceCategory>(c);
      e.status = static_cast<TraceStatus>(s);
      e.node = static_cast<int>(s);
      if (s % 2 == 0) e.detail = static_cast<std::int64_t>(c);
      h = hash_event(h, e);
      ref = reference_hash_event(ref, e);
      ASSERT_EQ(h, ref) << "category=" << c << " status=" << s;
    }
  }
}

TEST(TraceHash, EventFoldMatchesReferenceOnRandomEvents) {
  std::mt19937_64 gen(20240601);
  // Mix small magnitudes (the common case) with full-width noise, so
  // every significant-byte count and sign is drawn.
  const auto draw = [&gen]() -> std::int64_t {
    const std::uint64_t r = gen();
    const int bits = static_cast<int>(gen() % 65);
    const std::uint64_t v = bits == 64 ? r : r & ((1ull << bits) - 1);
    return static_cast<std::int64_t>((gen() & 1) != 0 ? 0 - v : v);
  };
  std::uint64_t h = kTraceHashSeed;
  std::uint64_t ref = kTraceHashSeed;
  for (int i = 0; i < 200000; ++i) {
    TraceEvent e;
    e.at = draw();
    e.category = static_cast<TraceCategory>(gen() % sim::kNumTraceCategories);
    e.node = static_cast<int>(draw());
    e.peer = static_cast<int>(draw());
    e.tid = static_cast<std::int32_t>(draw());
    e.pattern = static_cast<std::int32_t>(draw());
    e.size = static_cast<std::int32_t>(draw());
    e.sections = static_cast<std::uint16_t>(gen());
    e.status = static_cast<TraceStatus>(
        gen() % (static_cast<std::uint64_t>(kLastStatus) + 1));
    if ((gen() & 3) != 0) e.detail = draw();
    h = hash_event(h, e);
    ref = reference_hash_event(ref, e);
    ASSERT_EQ(h, ref) << "event " << i;
  }
}

}  // namespace
}  // namespace soda::chaos
