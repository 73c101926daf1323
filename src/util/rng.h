// Deterministic random number generation.
//
// Everything in speedmask that needs randomness (the synthetic circuit
// generator, random-pattern simulation, property tests) goes through Rng so
// that results are reproducible across platforms: no std::mt19937 state-size
// surprises, no distribution implementation divergence.
#pragma once

#include <cstdint>
#include <vector>

namespace sm {

// splitmix64: used to expand a seed into stream seeds.
std::uint64_t SplitMix64(std::uint64_t& state);

// xoshiro256** by Blackman & Vigna — fast, high quality, tiny state.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  // Counter-based stream splitting: a generator that depends only on
  // (seed, stream), never on construction order. Every independent consumer
  // of randomness (one per Monte-Carlo trial, one per simulation stream)
  // takes its own stream index so results are reproducible regardless of
  // thread count or evaluation order.
  static Rng ForStream(std::uint64_t seed, std::uint64_t stream);

  std::uint64_t Next() {
    const std::uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  // Uniform in [0, bound); bound must be > 0. Uses rejection sampling so the
  // distribution is exactly uniform.
  std::uint64_t Below(std::uint64_t bound);

  // Uniform in [lo, hi] inclusive.
  std::int64_t Range(std::int64_t lo, std::int64_t hi);

  // Uniform double in [0, 1): the 53 high bits of one draw.
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  // Bernoulli with probability p. Chance(0.5) holds exactly when bit 63 of
  // the draw is clear; LanePatterns draws pattern bits from that identity.
  bool Chance(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return Uniform() < p;
  }

  // Standard normal N(0, 1) via Box–Muller (no cached spare, so every call
  // consumes exactly two Next() draws — required for counter-based stream
  // reproducibility).
  double Normal();

  // Fisher–Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(Below(i));
      std::swap(v[i - 1], v[j]);
    }
  }

  // Picks k distinct indices from [0, n). k must be <= n.
  std::vector<std::size_t> Sample(std::size_t n, std::size_t k);

 private:
  static std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

// Stable 64-bit hash of a string (FNV-1a), used to derive per-circuit seeds
// from circuit names.
std::uint64_t HashName(const char* s);

}  // namespace sm
