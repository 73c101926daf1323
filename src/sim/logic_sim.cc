#include "sim/logic_sim.h"

#include <bit>

#include "util/check.h"

namespace sm {

std::vector<std::uint64_t> RandomInputWords(std::size_t num_inputs, Rng& rng) {
  std::vector<std::uint64_t> words(num_inputs);
  for (auto& w : words) w = rng.Next();
  return words;
}

std::vector<std::uint64_t> EvalNetworkParallel(
    const Network& net, const std::vector<std::uint64_t>& input_words) {
  SM_REQUIRE(input_words.size() == net.NumInputs(),
             "EvalNetworkParallel needs one word per primary input");
  std::vector<std::uint64_t> value(net.NumNodes(), 0);
  std::size_t next_input = 0;
  std::vector<std::uint64_t> local;
  for (NodeId id = 0; id < net.NumNodes(); ++id) {
    if (net.kind(id) == NodeKind::kInput) {
      value[id] = input_words[next_input++];
      continue;
    }
    const auto& fanins = net.fanins(id);
    local.clear();
    for (NodeId f : fanins) local.push_back(value[f]);
    value[id] = net.function(id).EvalParallel(local);
  }
  return value;
}

ActivityEstimate EstimateActivity(const MappedNetlist& net, Rng& rng,
                                  int num_words) {
  SM_REQUIRE(num_words > 0, "need at least one simulation word");
  ActivityEstimate est;
  est.probability.assign(net.NumElements(), 0.0);
  est.activity.assign(net.NumElements(), 0.0);

  std::vector<std::uint64_t> ones(net.NumElements(), 0);
  std::vector<std::uint64_t> toggles(net.NumElements(), 0);
  std::vector<std::uint64_t> last_bit(net.NumElements(), 0);
  std::vector<std::uint64_t> inputs(net.NumInputs());
  std::vector<std::uint64_t> values(net.NumElements());
  bool have_last = false;

  for (int w = 0; w < num_words; ++w) {
    // Draws in RandomInputWords order: one word per input.
    for (auto& word : inputs) word = rng.Next();
    net.EvalParallel(inputs.data(), values.data());
    for (GateId id = 0; id < net.NumElements(); ++id) {
      const std::uint64_t v = values[id];
      ones[id] += static_cast<std::uint64_t>(std::popcount(v));
      // Toggles between adjacent patterns inside the word...
      std::uint64_t t =
          static_cast<std::uint64_t>(std::popcount((v ^ (v >> 1)) &
                                                   0x7fffffffffffffffULL));
      // ...plus the seam to the previous word's last pattern.
      if (have_last) t += (last_bit[id] ^ (v & 1u)) ? 1u : 0u;
      toggles[id] += t;
      last_bit[id] = (v >> 63) & 1u;
    }
    have_last = true;
  }

  est.patterns = static_cast<std::size_t>(num_words) * 64;
  const double transitions =
      static_cast<double>(est.patterns - 1);  // pattern-to-pattern seams
  for (GateId id = 0; id < net.NumElements(); ++id) {
    est.probability[id] =
        static_cast<double>(ones[id]) / static_cast<double>(est.patterns);
    est.activity[id] = static_cast<double>(toggles[id]) / transitions;
  }
  return est;
}

}  // namespace sm
