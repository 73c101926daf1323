// Bit-parallel (64-way) logic simulation over networks and mapped netlists,
// plus Monte-Carlo estimates of signal probability and switching activity
// (the inputs to the dynamic-power model of Table 2).
#pragma once

#include <cstdint>
#include <vector>

#include "map/mapped_netlist.h"
#include "network/network.h"
#include "util/rng.h"

namespace sm {

// One uniformly random 64-pattern word per input.
std::vector<std::uint64_t> RandomInputWords(std::size_t num_inputs, Rng& rng);

// Evaluates every node of a technology-independent network; index by NodeId.
std::vector<std::uint64_t> EvalNetworkParallel(
    const Network& net, const std::vector<std::uint64_t>& input_words);

// Per-element one-probability and toggle activity, estimated from
// `num_words` batches of 64 random patterns applied as a stream (toggle =
// value change between consecutive patterns). Batch w draws one word per
// input, in inputs() order, as RandomInputWords does, and evaluates them
// with MappedNetlist::EvalParallel into buffers reused across batches.
// Elements are independent: an element computing the same function of the
// same input stream (a verbatim copy in a larger netlist driven by the same
// inputs in the same order) gets the same counts, which is what lets
// ComputeOverheads simulate the protected netlist once.
struct ActivityEstimate {
  std::vector<double> probability;  // P(signal = 1)
  std::vector<double> activity;     // toggles per applied pattern
  std::size_t patterns = 0;
};

ActivityEstimate EstimateActivity(const MappedNetlist& net, Rng& rng,
                                  int num_words = 64);

}  // namespace sm
