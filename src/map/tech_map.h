// Cut-based technology mapping.
//
// Input: an AND2/INV subject graph (from DecomposeToAndInv; 1-input buffers
// are accepted too). For every node we enumerate K-feasible cuts, compute
// each cut's local function, and match it against the library by
// permutation-complete truth-table lookup. A dynamic program then chooses
// per-node matches minimizing either area flow (area mode) or arrival time
// (delay mode, area flow as tie-break) — the standard mapper structure
// (ABC-style) in a compact form.
//
// The inner loop allocates nothing per cut. The subject graph is first
// copied into flat per-node op/fanin arrays, which the loops read instead of
// the bounds-checked Network accessors. Cuts are sorted leaf ids stored
// inline (at most 6) in one arena per call, reserved once so it never
// reallocates; node id owns a contiguous range of it. A node keeps the first
// max_cuts_per_node distinct merged cuts in (size, leaf ids) order, chosen
// by bounded sorted insertion as candidates are merged, never by sorting
// them all. A cut's function is a 64-bit truth table computed by a DFS from
// the root that stops at every leaf, on epoch-stamped scratch arrays. It is
// deliberately not composed from the fanin cuts' tables: a leaf lying
// inside another leaf's cone is a free variable under the DFS but not under
// composition, and the two give different tables (and netlists) on such
// cuts. Library matches are keyed by (leaf count, truth word). See
// docs/ALGORITHMS.md §3.
//
// The flow maps the original circuit in area mode (Table 2's baseline) and
// the error-masking circuit in delay mode (to bank slack).
#pragma once

#include <vector>

#include "liblib/library.h"
#include "map/mapped_netlist.h"
#include "network/network.h"

namespace sm {

struct TechMapOptions {
  enum class Mode { kArea, kDelay };
  Mode mode = Mode::kArea;
  // Cut enumeration bounds. max_cut_leaves is clamped to the library's
  // widest cell and to 6.
  int max_cut_leaves = 4;
  int max_cuts_per_node = 16;
};

struct TechMapResult {
  MappedNetlist netlist;
  // Network node -> element computing the same signal (kInvalidGate when the
  // node was absorbed into a gate's interior).
  std::vector<GateId> node_map;
};

// `subject` must satisfy IsAndInvNetwork (constants allowed). `lib` must
// contain at least an inverter, a 2-input AND, and tie cells, and must
// outlive the returned netlist.
TechMapResult TechMap(const Network& subject, const Library& lib,
                      const TechMapOptions& options = {});

// Convenience: decompose + map a general technology-independent network.
TechMapResult DecomposeAndMap(const Network& net, const Library& lib,
                              const TechMapOptions& options = {});

}  // namespace sm
