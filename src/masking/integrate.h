// Integration of the error-masking circuit with the original mapped circuit
// (Fig. 1): the masking network is mapped in delay mode, instantiated next
// to the original gates, and a 2-to-1 mux is placed at each critical output
// (select = e_i, 0-input = y_i, 1-input = ỹ_i). Non-critical outputs pass
// through untouched — the scheme is non-intrusive.
#pragma once

#include <cstddef>
#include <vector>

#include "liblib/library.h"
#include "map/tech_map.h"
#include "masking/synth.h"
#include "sta/sta.h"

namespace sm {

struct ProtectedCircuit {
  MappedNetlist netlist;  // original ∪ masking ∪ muxes

  struct Tap {
    std::size_t output_index;  // position in the original output list
    GateId original;           // y_i driver (copied original logic)
    GateId predicted;          // ỹ_i
    GateId indicator;          // e_i
    GateId mux;                // the masked output driver
  };
  std::vector<Tap> taps;

  // Accounting for Table 2.
  double original_area = 0;
  double masking_area = 0;  // includes the muxes
  double original_delay = 0;
  double masking_delay = 0;  // critical delay of the masking circuit alone
  double SlackPercent() const {
    return original_delay <= 0
               ? 0
               : 100.0 * (original_delay - masking_delay) / original_delay;
  }
  double AreaOverheadPercent() const {
    return original_area <= 0 ? 0 : 100.0 * masking_area / original_area;
  }
};

struct IntegrateOptions {
  // Mapping mode for the masking network; delay mode banks slack so that the
  // error-masking circuit is itself immune to timing errors.
  TechMapOptions mask_map_options = [] {
    TechMapOptions o;
    o.mode = TechMapOptions::Mode::kDelay;
    return o;
  }();
  const char* mux_cell = "MUX2";  // pins: (select, d0, d1)
};

// `original` is the mapped circuit C (defines the PI order); `masking` is
// the synthesized technology-independent masking network. The library must
// outlive the returned netlist.
ProtectedCircuit IntegrateMasking(const MappedNetlist& original,
                                  const MaskingCircuit& masking,
                                  const Library& lib,
                                  const IntegrateOptions& options = {});

// Where each element of C sits in the protected netlist: result[id] is the
// element of `protected_netlist` that copies `original` element id.
// IntegrateMasking copies C verbatim — inputs first and in C's input order,
// then every gate with its name, cell and pin order — so under the same
// input words each copy carries exactly its original's values and delays.
// Consumers that judge C through its copies (one STA pass per MC trial, one
// power simulation for Table 2) rely on that; a protected netlist that
// breaks it (a missing or renamed copy, another cell, rewired pins, an input
// at another position) is rejected with an InternalError.
std::vector<GateId> VerbatimCopyMap(const MappedNetlist& original,
                                    const MappedNetlist& protected_netlist);

}  // namespace sm
