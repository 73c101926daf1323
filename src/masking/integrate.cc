#include "masking/integrate.h"

#include <unordered_map>

#include "util/check.h"

namespace sm {

ProtectedCircuit IntegrateMasking(const MappedNetlist& original,
                                  const MaskingCircuit& masking,
                                  const Library& lib,
                                  const IntegrateOptions& options) {
  SM_REQUIRE(original.NumInputs() == masking.network.NumInputs(),
             "original and masking circuits must share the PI interface");
  const Cell* mux_cell = lib.ByNameOrThrow(options.mux_cell);
  SM_REQUIRE(mux_cell->num_pins() == 3, "mux cell must have 3 pins");

  // Map the masking network with slack-oriented settings.
  const TechMapResult mapped_mask =
      DecomposeAndMap(masking.network, lib, options.mask_map_options);
  const MappedNetlist& mask = mapped_mask.netlist;

  ProtectedCircuit result{MappedNetlist(original.name() + "_protected"),
                          {}, 0, 0, 0, 0};
  MappedNetlist& out = result.netlist;

  // 1. Primary inputs (shared).
  std::vector<GateId> orig_map(original.NumElements(), kInvalidGate);
  std::vector<GateId> mask_map(mask.NumElements(), kInvalidGate);
  for (std::size_t i = 0; i < original.NumInputs(); ++i) {
    const GateId pi = out.AddInput(original.element(original.inputs()[i]).name);
    orig_map[original.inputs()[i]] = pi;
    mask_map[mask.inputs()[i]] = pi;
  }

  // 2. The original gates, verbatim (non-intrusive: nothing is resized or
  // rewired).
  for (GateId id = 0; id < original.NumElements(); ++id) {
    if (original.IsInput(id)) continue;
    std::vector<GateId> fanins;
    for (GateId f : original.fanins(id)) {
      SM_CHECK(orig_map[f] != kInvalidGate, "fanin not yet copied");
      fanins.push_back(orig_map[f]);
    }
    orig_map[id] = out.AddGate(original.element(id).cell, std::move(fanins),
                               original.element(id).name);
  }

  // 3. The masking gates, renamed with an em_ prefix to avoid collisions.
  for (GateId id = 0; id < mask.NumElements(); ++id) {
    if (mask.IsInput(id)) continue;
    std::vector<GateId> fanins;
    for (GateId f : mask.fanins(id)) {
      SM_CHECK(mask_map[f] != kInvalidGate, "fanin not yet copied");
      fanins.push_back(mask_map[f]);
    }
    mask_map[id] = out.AddGate(mask.element(id).cell, std::move(fanins),
                               "em_" + mask.element(id).name);
  }

  // 4. Muxes at the critical outputs; everything else passes through.
  std::unordered_map<std::size_t, MaskingCircuit::Entry> entry_of;
  for (const auto& e : masking.entries) entry_of.emplace(e.output_index, e);

  for (std::size_t i = 0; i < original.NumOutputs(); ++i) {
    const auto& o = original.output(i);
    const auto it = entry_of.find(i);
    if (it == entry_of.end()) {
      out.AddOutput(o.name, orig_map[o.driver]);
      continue;
    }
    const MaskingCircuit::Entry& entry = it->second;
    const GateId y = orig_map[o.driver];
    const GateId pred =
        mask_map[mask.output(entry.pred_output).driver];
    const GateId ind = mask_map[mask.output(entry.ind_output).driver];
    const GateId mux =
        out.AddGate(mux_cell, {ind, y, pred}, "mux_" + o.name);
    out.AddOutput(o.name, mux);
    result.taps.push_back(
        ProtectedCircuit::Tap{i, y, pred, ind, mux});
  }
  out.CheckInvariants();

  // 5. Accounting. The masking overhead includes the muxes.
  result.original_area = original.TotalArea();
  result.masking_area = mask.TotalArea() +
                        static_cast<double>(result.taps.size()) *
                            mux_cell->area();
  result.original_delay = AnalyzeTiming(original).critical_delay;
  result.masking_delay = AnalyzeTiming(mask).critical_delay;
  return result;
}

std::vector<GateId> VerbatimCopyMap(const MappedNetlist& original,
                                    const MappedNetlist& protected_netlist) {
  const MappedNetlist& prot = protected_netlist;
  SM_CHECK(prot.NumInputs() == original.NumInputs(),
           "protected netlist has " << prot.NumInputs()
                                    << " inputs, the original "
                                    << original.NumInputs());
  std::vector<GateId> copy_of(original.NumElements(), kInvalidGate);
  for (GateId id = 0; id < original.NumElements(); ++id) {
    const MappedNetlist::Element& e = original.element(id);
    const GateId copy = prot.FindByName(e.name);
    bool verbatim = copy != kInvalidGate && prot.element(copy).cell == e.cell &&
                    prot.fanins(copy).size() == e.fanins.size();
    for (std::size_t p = 0; verbatim && p < e.fanins.size(); ++p) {
      verbatim = prot.fanins(copy)[p] == copy_of[e.fanins[p]];
    }
    if (verbatim && e.cell == nullptr) {
      verbatim = prot.InputIndex(copy) == original.InputIndex(id);
    }
    SM_CHECK(verbatim, "protected netlist lacks a verbatim copy of original "
                       "element " << e.name);
    copy_of[id] = copy;
  }
  return copy_of;
}

}  // namespace sm
