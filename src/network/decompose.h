// Decomposition of a technology-independent network into a subject graph of
// 2-input ANDs and inverters — the input form for technology mapping.
//
// Each node's SOP becomes a balanced AND2/INV tree (literals → cube ANDs →
// De Morgan OR). Balanced trees keep decomposed depth, and hence the mapped
// critical path, proportional to log(cube width), which matters for the
// error-masking circuit's slack.
//
// The output is fully determined, node order and names included: inputs
// keep their names and TI order, interleaved with the logic nodes, and each
// logic node is named n<k> after its position k in the unpruned build
// order (docs/ALGORITHMS.md §3). The mapper's netlists, and hence every
// flow result, depend on this order.
#pragma once

#include <vector>

#include "network/network.h"

namespace sm {

struct DecomposeResult {
  Network network;               // nodes are AND2 or INV only (plus inputs)
  std::vector<NodeId> node_map;  // old node -> new node computing it
};

// True when every logic node of `net` is a 2-input AND or an inverter.
bool IsAndInvNetwork(const Network& net);

DecomposeResult DecomposeToAndInv(const Network& net);

}  // namespace sm
