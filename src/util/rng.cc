#include "util/rng.h"

#include <cmath>

#include "util/check.h"

namespace sm {

std::uint64_t SplitMix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng Rng::ForStream(std::uint64_t seed, std::uint64_t stream) {
  // Whiten the seed once, fold in the stream index, then mix again so that
  // adjacent stream indices land in unrelated states (seed ⊕ stream alone
  // would leave xoshiro seeds one splitmix step apart).
  std::uint64_t state = seed;
  const std::uint64_t whitened = SplitMix64(state);
  std::uint64_t mix = whitened ^ stream;
  return Rng(SplitMix64(mix));
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm_state = seed;
  for (auto& s : s_) s = SplitMix64(sm_state);
  // All-zero state is the one forbidden state of xoshiro; splitmix cannot
  // produce four zero outputs from any seed, but keep the guard explicit.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::Below(std::uint64_t bound) {
  SM_REQUIRE(bound > 0, "Rng::Below bound must be positive");
  // Lemire-style rejection: threshold is 2^64 mod bound.
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const std::uint64_t r = Next();
    if (r >= threshold) return r % bound;
  }
}

std::int64_t Rng::Range(std::int64_t lo, std::int64_t hi) {
  SM_REQUIRE(lo <= hi, "Rng::Range requires lo <= hi");
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  return lo + static_cast<std::int64_t>(Below(span));
}

double Rng::Normal() {
  // Box–Muller with a fixed draw count. Uniform() is in [0, 1); flip it to
  // (0, 1] so the log argument is never zero.
  const double u = 1.0 - Uniform();
  const double v = Uniform();
  constexpr double kTwoPi = 6.283185307179586476925286766559;
  return std::sqrt(-2.0 * std::log(u)) * std::cos(kTwoPi * v);
}

std::vector<std::size_t> Rng::Sample(std::size_t n, std::size_t k) {
  SM_REQUIRE(k <= n, "Rng::Sample requires k <= n");
  // Selection sampling (Knuth algorithm S): O(n), deterministic order.
  std::vector<std::size_t> out;
  out.reserve(k);
  std::size_t remaining = k;
  for (std::size_t i = 0; i < n && remaining > 0; ++i) {
    const std::size_t left = n - i;
    if (Below(left) < remaining) {
      out.push_back(i);
      --remaining;
    }
  }
  return out;
}

std::uint64_t HashName(const char* s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (; *s != '\0'; ++s) {
    h ^= static_cast<unsigned char>(*s);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace sm
