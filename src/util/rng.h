// Deterministic pseudo-random number generation.
//
// Every stochastic component (channel losses, protocol jitter, workload
// generation) draws from an Rng seeded explicitly, so whole simulations are
// reproducible bit-for-bit from a single seed. The generator is
// xoshiro256** (public domain, Blackman & Vigna) seeded via splitmix64.
// The per-draw leaves (next, uniform01, bernoulli) are defined here so the
// radio model's two loss draws per fan-out candidate inline.
#pragma once

#include <cstdint>

namespace lrs {

class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// Uniform 64-bit value.
  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, bound), bound > 0. Uses rejection to avoid modulo bias.
  std::uint64_t uniform(std::uint64_t bound);

  /// Uniform in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1): 53 random mantissa bits.
  double uniform01() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double uniform_real(double lo, double hi);

  /// True with probability p (clamped to [0,1]).
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform01() < p;
  }

  /// Geometric number of Bernoulli(p) trials until first success (>= 1).
  std::uint64_t geometric(double p);

  /// Derive an independent child generator (for per-node streams).
  Rng fork();

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

}  // namespace lrs
