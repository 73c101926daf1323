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
// The inner loop allocates nothing per cut and keeps only live cut sets
// (map/cut_enum.h). The subject graph is first copied into flat per-node
// op/fanin arrays. Cuts are sorted leaf ids stored inline (at most 6) with
// two bytes naming the fanin cuts they came from. A node keeps the first
// max_cuts_per_node distinct merged cuts in (size, leaf ids) order, chosen
// by bounded sorted insertion as candidates are merged.
//
// A cut's function is a 64-bit truth table, composed from its fanin cuts'
// words: an inverter's cut inverts its fanin cut's word, an AND cut is the
// AND of both fanin words moved onto the merged leaves. The reference
// semantics is a DFS from the root that stops at every leaf, and the two
// differ only when a merged leaf lies inside the other fanin cut's DFS
// interior (a dominated leaf, which the DFS reads as a free variable).
// Every cut therefore carries a 64-bit Bloom signature of its interior, and
// a cut whose added leaves hit the signature is evaluated by the DFS
// instead; the functions, and so the netlists, are exactly the DFS's.
//
// A node's cut set lives in a fixed slot of max_cuts_per_node + 2 cuts
// from a free-list pool, from the node's enumeration until its last fanout
// has read it; the DP reads flat per-node area-flow and arrival arrays and
// the chosen cut is copied into the node's choice for extraction. Library
// matches come from the library's own (leaf count, truth word) index
// (Library::Matches). See docs/ALGORITHMS.md §3.
//
// The flow maps the original circuit in area mode (Table 2's baseline) and
// the error-masking circuit in delay mode (to bank slack).
#pragma once

#include <cstddef>
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
  int max_cuts_per_node = 16;  // at most 253
};

// Deterministic work counters of one TechMap call. They describe how the
// result was computed, not the result: nothing encoded or hashed reads them.
struct TechMapStats {
  std::size_t cuts_kept = 0;      // non-trivial cuts kept, anchors included
  std::size_t cuts_composed = 0;  // kept cuts whose function was composed
  std::size_t dfs_fallbacks = 0;  // kept cuts evaluated by the DFS
  std::size_t peak_live_cut_sets = 0;  // most cut-set slots held at once
  bool operator==(const TechMapStats&) const = default;
};

struct TechMapResult {
  MappedNetlist netlist;
  // Network node -> element computing the same signal (kInvalidGate when the
  // node was absorbed into a gate's interior).
  std::vector<GateId> node_map;
  TechMapStats stats;
};

// `subject` must satisfy IsAndInvNetwork (constants allowed). `lib` must
// contain at least an inverter, a 2-input AND, and tie cells, and must
// outlive the returned netlist. Calls may share one Library across threads.
TechMapResult TechMap(const Network& subject, const Library& lib,
                      const TechMapOptions& options = {});

// Convenience: decompose + map a general technology-independent network.
TechMapResult DecomposeAndMap(const Network& net, const Library& lib,
                              const TechMapOptions& options = {});

}  // namespace sm
