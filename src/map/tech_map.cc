#include "map/tech_map.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>

#include "map/cut_enum.h"
#include "network/decompose.h"
#include "util/check.h"

namespace sm {
namespace {

using map_detail::Cut;
using map_detail::CutEnumerator;
using map_detail::CutFunction;
using map_detail::FlatSubject;
using map_detail::kMaxLeaves;
using map_detail::Op;
using Mode = TechMapOptions::Mode;

// A node's chosen match and a copy of its cut, for extraction.
struct Choice {
  const Cell* cell = nullptr;
  const CellMatch* match = nullptr;  // null for tie cells
  Cut cut;
};

}  // namespace

TechMapResult TechMap(const Network& subject, const Library& lib,
                      const TechMapOptions& options) {
  SM_REQUIRE(IsAndInvNetwork(subject),
             "TechMap requires an AND2/INV subject graph");
  SM_REQUIRE(lib.SmallestInverter() != nullptr, "library lacks an inverter");
  const int k = std::min({options.max_cut_leaves, lib.MaxPins(), kMaxLeaves});
  SM_REQUIRE(k >= 2, "mapper needs cuts of at least 2 leaves");

  const std::size_t n = subject.NumNodes();
  const FlatSubject g(subject);

  // --- cut enumeration + matching DP, one topological pass -------------
  CutEnumerator enumerator(g, k, options.max_cuts_per_node);
  std::vector<Choice> best(n);
  // A mapped node's area flow (its cost shared among its fanout edges) and
  // arrival, as its fanouts' DP reads them; 0 for inputs and constants.
  std::vector<double> leaf_flow(n, 0.0);
  std::vector<double> leaf_arr(n, 0.0);
  for (NodeId id = 0; id < n; ++id) {
    enumerator.Enumerate(id);
    if (g.op[id] == Op::kLeaf) continue;
    const std::span<const Cut> cuts = enumerator.cuts();
    const std::span<const CutFunction> fns = enumerator.functions();

    // DP over matches of each cut.
    Choice& my = best[id];
    std::size_t chosen = 0;
    double cost = std::numeric_limits<double>::infinity();     // area flow
    double arrival = std::numeric_limits<double>::infinity();  // delay mode
    for (std::size_t c = 0; c < cuts.size(); ++c) {
      const Cut& cut = cuts[c];
      const std::uint64_t valid = MintermMask(cut.size);
      const std::uint64_t f = fns[c].word & valid;
      // A constant cut function means the node is structurally constant
      // (e.g. AND of a signal with its inverse); a tie cell realizes it.
      if (f == 0 || f == valid) {
        const Cell* tie_cell = lib.SmallestConstant(f != 0);
        if (tie_cell != nullptr &&
            (options.mode == Mode::kArea ? tie_cell->area() < cost
                                         : 0.0 < arrival)) {
          my.cell = tie_cell;
          my.match = nullptr;
          chosen = c;
          cost = tie_cell->area();
          arrival = 0.0;
        }
        continue;
      }
      const std::vector<CellMatch>* bucket = lib.Matches(cut.size, f);
      if (bucket == nullptr) continue;
      for (const CellMatch& m : *bucket) {
        double flow = m.cell->area();
        for (NodeId leaf : cut) flow += leaf_flow[leaf];
        double at = 0;
        for (int pin = 0; pin < m.cell->num_pins(); ++pin) {
          at = std::max(at, leaf_arr[cut.leaf[m.perm[pin]]] +
                                m.cell->pin_delay(pin));
        }
        const bool better =
            options.mode == Mode::kArea
                ? (flow < cost || (flow == cost && at < arrival))
                : (at < arrival || (at == arrival && flow < cost));
        if (better) {
          my.cell = m.cell;
          my.match = &m;
          chosen = c;
          cost = flow;
          arrival = at;
        }
      }
    }
    SM_CHECK(my.cell != nullptr,
             "no library match for node " << subject.node_name(id)
                                          << " — library incomplete");
    my.cut = cuts[chosen];
    leaf_flow[id] =
        cost / static_cast<double>(std::max<std::uint32_t>(1, g.fanouts[id]));
    leaf_arr[id] = arrival;
  }

  // --- extraction -------------------------------------------------------
  TechMapResult result{MappedNetlist(subject.name()),
                       std::vector<GateId>(n, kInvalidGate),
                       enumerator.stats()};
  MappedNetlist& out = result.netlist;
  for (NodeId id : subject.inputs()) {
    result.node_map[id] = out.AddInput(subject.node_name(id));
  }

  GateId tie[2] = {kInvalidGate, kInvalidGate};
  auto get_tie = [&](bool value) {
    GateId& slot = tie[value ? 1 : 0];
    if (slot == kInvalidGate) {
      const Cell* c = lib.SmallestConstant(value);
      SM_REQUIRE(c != nullptr, "library lacks a tie cell");
      slot = out.AddGate(c, {}, value ? "_tie1" : "_tie0");
    }
    return slot;
  };

  // Iterative realization from the outputs.
  std::vector<NodeId> work;
  for (const auto& o : subject.outputs()) work.push_back(o.driver);
  while (!work.empty()) {
    const NodeId id = work.back();
    if (result.node_map[id] != kInvalidGate) {
      work.pop_back();
      continue;
    }
    if (g.op[id] == Op::kLeaf) {  // a constant node; inputs are mapped
      result.node_map[id] = get_tie(subject.function(id).IsConst1());
      work.pop_back();
      continue;
    }
    const Choice& ch = best[id];
    if (ch.cell != nullptr && ch.cell->IsConstant()) {
      result.node_map[id] = get_tie(ch.cell->function().Get(0));
      work.pop_back();
      continue;
    }
    const Cut& cut = ch.cut;
    bool ready = true;
    for (NodeId leaf : cut) {
      if (result.node_map[leaf] == kInvalidGate) {
        work.push_back(leaf);
        ready = false;
      }
    }
    if (!ready) continue;
    work.pop_back();
    std::vector<GateId> fanin_gates(static_cast<std::size_t>(
        ch.cell->num_pins()));
    for (int pin = 0; pin < ch.cell->num_pins(); ++pin) {
      fanin_gates[static_cast<std::size_t>(pin)] =
          result.node_map[cut.leaf[ch.match->perm[pin]]];
    }
    result.node_map[id] =
        out.AddGate(ch.cell, std::move(fanin_gates), subject.node_name(id));
  }

  for (const auto& o : subject.outputs()) {
    out.AddOutput(o.name, result.node_map[o.driver]);
  }
  out.CheckInvariants();
  return result;
}

TechMapResult DecomposeAndMap(const Network& net, const Library& lib,
                              const TechMapOptions& options) {
  const DecomposeResult d = DecomposeToAndInv(net);
  TechMapResult mapped = TechMap(d.network, lib, options);
  // Re-express node_map in terms of the original network's ids.
  std::vector<GateId> remapped(net.NumNodes(), kInvalidGate);
  for (NodeId id = 0; id < net.NumNodes(); ++id) {
    const NodeId s = d.node_map[id];
    if (s != kInvalidNode) remapped[id] = mapped.node_map[s];
  }
  mapped.node_map = std::move(remapped);
  return mapped;
}

}  // namespace sm
