// Pattern pairs for the batched simulator (batch_sim.h), drawn straight into
// lane words.
//
// Word w holds up to 64 pattern pairs: bit l of previous(w)[v] / next(w)[v]
// is lane l's value of primary input v, the layout BatchEventSim::Run takes.
// Generators write one lane at a time, consuming their RNG in exactly the
// order a per-lane std::vector<bool> generator would, so a pattern stream is
// the same whether it lands in a 64-lane word or in a single lane that is
// then unpacked for the scalar engine. A drawn bit is the complement of the
// top bit of one rng.Next(): rng.Chance(0.5) is Uniform() < 0.5, that is
// (Next() >> 11) · 2^-53 < 0.5, which holds exactly when bit 63 is clear. So
// a lane word equals the plain rng.Chance(0.5) bit vectors, without a branch
// or a conversion per bit. Words are kept across Start calls, so a worker
// that reuses one LanePatterns allocates only while its word count grows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace sm {

class LanePatterns {
 public:
  explicit LanePatterns(std::size_t num_inputs) : num_inputs_(num_inputs) {}

  // Zeroes word w (growing the word list when needed) before lanes are
  // written into it.
  void Start(std::size_t w);

  // next(w) lane bits drawn with one rng.Next() per input, in input order,
  // each bit equal to that draw's rng.Chance(0.5); DrawPrevious likewise for
  // previous(w).
  void DrawNext(Rng& rng, std::size_t w, int lane) {
    DrawInto(rng, next_[w], lane);
  }
  void DrawPrevious(Rng& rng, std::size_t w, int lane) {
    DrawInto(rng, prev_[w], lane);
  }
  // next(w) lane bits copied from `bits` (one per input).
  void SetNext(std::size_t w, int lane, const std::vector<bool>& bits);
  // Makes the lane's previous pattern its next pattern with input `flip`
  // inverted (no flip when flip < 0). Takes effect in Finish, so it may be
  // called before the lane's next bits are written.
  void CopyNext(std::size_t w, int lane, int flip);

  // Completes word w once all of its lanes are written.
  void Finish(std::size_t w);

  const std::vector<std::uint64_t>& previous(std::size_t w) const {
    return prev_[w];
  }
  const std::vector<std::uint64_t>& next(std::size_t w) const {
    return next_[w];
  }

  // One lane of a word as one bit per input, for the scalar engine.
  static std::vector<bool> Unpack(const std::vector<std::uint64_t>& word,
                                  int lane);

 private:
  static void DrawInto(Rng& rng, std::vector<std::uint64_t>& word, int lane) {
    for (std::uint64_t& v : word) v |= ((rng.Next() >> 63) ^ 1) << lane;
  }

  std::size_t num_inputs_;
  std::vector<std::vector<std::uint64_t>> prev_;
  std::vector<std::vector<std::uint64_t>> next_;
  // Lanes of each word whose previous pattern is their next pattern, with
  // prev_ holding only the flip bit until Finish.
  std::vector<std::uint64_t> copy_;
};

}  // namespace sm
