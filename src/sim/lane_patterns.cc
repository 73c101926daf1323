#include "sim/lane_patterns.h"

#include <algorithm>

namespace sm {

void LanePatterns::Start(std::size_t w) {
  if (w >= prev_.size()) {
    prev_.resize(w + 1, std::vector<std::uint64_t>(num_inputs_));
    next_.resize(w + 1, std::vector<std::uint64_t>(num_inputs_));
    copy_.resize(w + 1);
  }
  std::fill(prev_[w].begin(), prev_[w].end(), 0);
  std::fill(next_[w].begin(), next_[w].end(), 0);
  copy_[w] = 0;
}

void LanePatterns::SetNext(std::size_t w, int lane,
                           const std::vector<bool>& bits) {
  std::vector<std::uint64_t>& word = next_[w];
  for (std::size_t v = 0; v < num_inputs_; ++v) {
    word[v] |= std::uint64_t{bits[v]} << lane;
  }
}

void LanePatterns::CopyNext(std::size_t w, int lane, int flip) {
  const std::uint64_t bit = std::uint64_t{1} << lane;
  copy_[w] |= bit;
  if (flip >= 0) prev_[w][static_cast<std::size_t>(flip)] ^= bit;
}

void LanePatterns::Finish(std::size_t w) {
  const std::uint64_t copy = copy_[w];
  if (copy == 0) return;
  std::vector<std::uint64_t>& prev = prev_[w];
  const std::vector<std::uint64_t>& next = next_[w];
  for (std::size_t v = 0; v < num_inputs_; ++v) prev[v] ^= next[v] & copy;
}

std::vector<bool> LanePatterns::Unpack(const std::vector<std::uint64_t>& word,
                                       int lane) {
  std::vector<bool> bits(word.size());
  for (std::size_t v = 0; v < word.size(); ++v) {
    bits[v] = (word[v] >> lane) & 1u;
  }
  return bits;
}

}  // namespace sm
