// End-to-end flow driver: technology-independent circuit in, Table-2 row
// out. Mirrors the paper's flow:
//
//   map (area mode) → STA → SPCF (Sec. 3) → masking synthesis (Sec. 4) →
//   delay-mode mapping + mux integration (Fig. 1) → formal verification →
//   area/power/slack accounting.
#pragma once

#include <memory>

#include "liblib/library.h"
#include "masking/integrate.h"
#include "masking/report.h"
#include "masking/synth.h"
#include "masking/verify.h"
#include "spcf/spcf.h"

namespace sm {

struct FlowOptions {
  SpcfOptions spcf;
  MaskingSynthOptions synth;
  IntegrateOptions integrate;
  TechMapOptions original_map;  // defaults to area mode
  std::uint64_t power_seed = 12345;
  int power_words = 64;
  std::size_t bdd_node_limit = 8'000'000;
  // Memory-manager policy for the flow-owned manager: GC cadence and
  // dynamic reordering (node_limit is taken from bdd_node_limit above).
  // Ignored when reuse_manager is set — an external manager keeps its own
  // options. Reordering changes BDD structure (and therefore the SatOne
  // cube picks inside masking synthesis), so flows that must be
  // byte-identical across runs keep it off (the default).
  BddManagerOptions bdd_options;
  // Optional externally-owned manager to run the flow in; must have
  // num_vars == the circuit's PI count and must outlive the FlowResult.
  // When set, FlowResult.mgr stays null and every ref in the result lives in
  // *reuse_manager — the analysis service uses this to keep a warm
  // unique-table/op-cache across requests. Results are identical either way
  // (interned nodes and caches change only the work done, never the BDDs).
  BddManager* reuse_manager = nullptr;
  // Cooperative cancellation: polled between flow phases and, for a
  // flow-owned manager, attached to the manager for ITE-stride checks (a
  // reuse_manager keeps whatever token its owner attached). Aborts throw
  // CancelledError; the token must outlive the flow call. Not owned.
  const CancelToken* cancel = nullptr;
};

// The flow of a scoped request, shared by the analysis service and the
// optimizer so both run byte-identical flows: FlowOptions defaults except
// the SPCF guard band and SynthOptionsForEffort(effort), restricted to the
// original output indices in `scope` (strictly ascending; empty =
// protect every critical output).
FlowOptions FlowOptionsFor(double guard, int effort,
                           const std::vector<std::size_t>& scope);

struct FlowResult {
  // The manager owns every BDD ref below; it is listed first and destroyed
  // last. Null when the flow ran inside FlowOptions::reuse_manager — the
  // refs then belong to that external manager.
  std::unique_ptr<BddManager> mgr;

  MappedNetlist original;
  TimingInfo timing;
  SpcfResult spcf;
  MaskingCircuit masking;
  ProtectedCircuit protected_circuit;
  MaskingVerification verification;
  OverheadReport overheads;
  // Kernel work counters of `mgr` across the whole flow (SPCF + masking
  // synthesis + verification).
  BddStats bdd;
};

// Precondition checks for a flow configuration: guard-band fraction finite
// and in [0, 1), positive power/BDD budgets, and a valid synthesis scope
// (ValidateMaskingSynthOptions). Run by both flow entry points before any
// work, so optimizer-generated configs fail loudly instead of producing
// silently-unprotected flows. Throws std::invalid_argument.
void ValidateFlowOptions(const FlowOptions& options, std::size_t num_outputs);

// `lib` must outlive the result. Throws BddOverflowError when the circuit's
// global functions exceed the node limit.
FlowResult RunMaskingFlow(const Network& ti, const Library& lib,
                          const FlowOptions& options = {});

// Variant for an existing mapped implementation: `original` is used as the
// circuit C (its timing defines the speed-paths) and `ti` is the
// technology-independent source the masking network is synthesized from.
// The two must implement the same functions over the same PI/PO order.
FlowResult RunMaskingFlowPremapped(const MappedNetlist& original,
                                   const Network& ti, const Library& lib,
                                   const FlowOptions& options = {});

}  // namespace sm
