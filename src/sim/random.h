// Deterministic pseudo-random source for the simulator.
//
// One generator per stream keeps runs reproducible from a single seed.
// The simulator owns one stream *per partition wheel*: a one-partition
// simulator draws from the root stream Rng(seed); P > 1 partitions split
// it into Rng(seed, p), so a partition's draw sequence is a pure function
// of (root_seed, partition) no matter in which order the partitions of a
// lookahead window execute (doc/PERFORMANCE.md §5).
#pragma once

#include <cassert>
#include <cstdint>
#include <limits>

namespace soda::sim {

/// SplitMix64 — tiny, fast, and statistically adequate for backoff jitter,
/// loss injection, and victim selection. Not for cryptography.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  /// Stream-splitting constructor: derive partition `partition`'s private
  /// stream from the root seed by running the SplitMix64 finalizer over
  /// the (seed, partition) pair. Distinct partitions land in far-apart
  /// regions of the underlying Weyl sequence, and Rng(s, p) differs from
  /// Rng(s) even for p == 0 — a split stream family, not a relabeling of
  /// the root stream.
  Rng(std::uint64_t root_seed, std::uint64_t partition)
      : state_(mix(root_seed + 0x9E3779B97F4A7C15ull * (partition + 1)) ^
               mix(partition + 0x2545F4914F6CDD1Dull)) {}

  std::uint64_t next_u64() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, bound). bound must be > 0. Lemire's multiply-shift
  /// with rejection: unbiased for every bound (the old `% bound` favored
  /// small residues whenever bound did not divide 2^64), and still one
  /// draw in the common case — the rejection loop runs with probability
  /// (2^64 mod bound) / 2^64, and never for power-of-two bounds, which
  /// take the *top* bits of the draw instead of the bottom ones.
  std::uint64_t next_below(std::uint64_t bound) {
    assert(bound > 0);
    std::uint64_t x = next_u64();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;  // 2^64 mod bound
      while (lo < threshold) {
        x = next_u64();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform in [lo, hi] inclusive. Requires lo <= hi. Always consumes at
  /// least one draw, even when lo == hi — callers rely on stable draw
  /// counts to keep unrelated streams aligned when toggling knobs.
  std::int64_t next_range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    next_below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// Bernoulli trial with probability p in [0,1]. Degenerate probabilities
  /// consume no draw (several callers count on that to keep streams
  /// aligned when a fault knob is simply off).
  bool chance(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return static_cast<double>(next_u64()) /
               static_cast<double>(std::numeric_limits<std::uint64_t>::max()) <
           p;
  }

 private:
  static constexpr std::uint64_t mix(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  std::uint64_t state_;
};

}  // namespace soda::sim
