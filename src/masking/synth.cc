#include "masking/synth.h"

#include <algorithm>

#include "boolean/isop.h"
#include "masking/care_set.h"
#include "network/cone.h"
#include "network/sweep.h"
#include "util/check.h"

namespace sm {
namespace {

// Balanced conjunction of `ops` using AND nodes of up to `arity` fanins.
NodeId AndTree(Network& net, std::vector<NodeId> ops, int arity,
               const std::string& base_name) {
  SM_CHECK(arity >= 2, "AND-tree arity must be at least 2");
  if (ops.empty()) {
    return net.AddNode({}, Sop::Const1(0), base_name + "_true");
  }
  int counter = 0;
  while (ops.size() > 1) {
    std::vector<NodeId> next;
    for (std::size_t i = 0; i < ops.size(); i += static_cast<std::size_t>(arity)) {
      const std::size_t hi =
          std::min(ops.size(), i + static_cast<std::size_t>(arity));
      if (hi - i == 1) {
        next.push_back(ops[i]);
        continue;
      }
      const int k = static_cast<int>(hi - i);
      Cube all;
      for (int v = 0; v < k; ++v) all = all.WithLiteral(v, true);
      std::vector<NodeId> fanins(ops.begin() + static_cast<std::ptrdiff_t>(i),
                                 ops.begin() + static_cast<std::ptrdiff_t>(hi));
      next.push_back(net.AddNode(fanins, Sop(k, {all}),
                                 base_name + "_and" + std::to_string(counter++)));
    }
    ops = std::move(next);
  }
  return ops[0];
}

int SopLiterals(const Sop& s) { return s.NumLiterals() + static_cast<int>(s.NumCubes()); }

}  // namespace

MaskingSynthOptions SynthOptionsForEffort(int effort) {
  SM_REQUIRE(effort >= 0 && effort < kNumSynthEffortLevels,
             "synthesis effort must be in [0, " << kNumSynthEffortLevels - 1
                                                << "], got " << effort);
  MaskingSynthOptions o;
  switch (effort) {
    case 0:
      o.reduce_covers = false;
      o.simplify_indicators = false;
      o.choose_cheaper_polarity = false;
      o.collapse = false;
      break;
    case 1:
      o.simplify_indicators = false;
      o.collapse = false;
      break;
    case 2:
      break;  // the paper's defaults
    case 3:
      o.eliminate.elim_width = 10;
      o.eliminate.max_width = 16;
      o.eliminate.max_fanout = 8;
      break;
  }
  return o;
}

void ValidateMaskingSynthOptions(const MaskingSynthOptions& options,
                                 std::size_t num_outputs) {
  SM_REQUIRE(options.indicator_tree_arity >= 2,
             "indicator_tree_arity must be at least 2, got "
                 << options.indicator_tree_arity);
  SM_REQUIRE(options.eliminate.elim_width >= 1 &&
                 options.eliminate.max_width >= options.eliminate.elim_width &&
                 options.eliminate.max_fanout >= 1,
             "eliminate effort knobs must satisfy 1 <= elim_width <= "
             "max_width and max_fanout >= 1, got elim_width="
                 << options.eliminate.elim_width
                 << " max_width=" << options.eliminate.max_width
                 << " max_fanout=" << options.eliminate.max_fanout);
  if (options.protect_all) return;
  SM_REQUIRE(!options.protection_scope.empty(),
             "protection scope must be non-empty when protect_all is off — "
             "an empty scope would silently ship an unprotected circuit");
  for (std::size_t k = 0; k < options.protection_scope.size(); ++k) {
    SM_REQUIRE(options.protection_scope[k] < num_outputs,
               "protection scope index " << options.protection_scope[k]
                                         << " out of range for "
                                         << num_outputs << " outputs");
    SM_REQUIRE(k == 0 ||
                   options.protection_scope[k - 1] < options.protection_scope[k],
               "protection scope must be strictly ascending");
  }
}

MaskingCircuit SynthesizeMaskingNetwork(
    BddManager& mgr, const Network& ti,
    const std::vector<BddManager::Ref>& ti_globals, const SpcfResult& spcf,
    const MaskingSynthOptions& options) {
  SM_REQUIRE(spcf.sigma.size() == ti.NumOutputs(),
             "one SPCF per output required");
  SM_REQUIRE(ti_globals.size() == ti.NumNodes(),
             "one global BDD per network node required");
  ValidateMaskingSynthOptions(options, ti.NumOutputs());

  // Protection targets: every critical output, or the critical subset of
  // the caller's protection scope.
  std::vector<std::size_t> targets;
  if (options.protect_all) {
    targets = spcf.critical_outputs;
  } else {
    for (std::size_t i : spcf.critical_outputs) {
      if (std::binary_search(options.protection_scope.begin(),
                             options.protection_scope.end(), i)) {
        targets.push_back(i);
      }
    }
  }

  // Care context per node: union of the SPCFs of the protected outputs whose
  // cones contain it ("all outputs simultaneously", Sec. 4).
  // Each target's cone is collected once and reused for its indicator tree.
  std::vector<BddManager::Ref> ctx(ti.NumNodes(), mgr.False());
  std::vector<bool> in_cone(ti.NumNodes(), false);
  std::vector<std::vector<NodeId>> cones;
  cones.reserve(targets.size());
  for (std::size_t i : targets) {
    const BddManager::Ref sigma = spcf.sigma[i];
    cones.push_back(TransitiveFanin(ti, {ti.output(i).driver}));
    for (NodeId n : cones.back()) {
      ctx[n] = mgr.Or(ctx[n], sigma);
      in_cone[n] = true;
    }
  }

  MaskingCircuit result{Network(ti.name() + "_mask"), {}, 0, 0, 0, 0, 0};
  Network& out = result.network;

  std::vector<NodeId> pred(ti.NumNodes(), kInvalidNode);
  std::vector<NodeId> indicator(ti.NumNodes(), kInvalidNode);
  IsopMemo isop;  // node functions repeat; their exact covers are memoized

  for (NodeId id = 0; id < ti.NumNodes(); ++id) {
    if (ti.kind(id) == NodeKind::kInput) {
      // All PIs are replicated so the interface matches the original.
      pred[id] = out.AddInput(ti.node_name(id));
      continue;
    }
    if (!in_cone[id]) continue;
    ++result.cone_nodes;

    std::vector<NodeId> pred_fanins;
    std::vector<BddManager::Ref> fanin_globals;
    for (NodeId f : ti.fanins(id)) {
      SM_CHECK(pred[f] != kInvalidNode, "cone fanin missing a prediction");
      pred_fanins.push_back(pred[f]);
      fanin_globals.push_back(ti_globals[f]);
    }

    const TruthTable tt = ti.function(id).ToTruthTable();
    const int k = tt.num_vars();
    if (k == 0 || tt.IsConst0() || tt.IsConst1()) {
      // Constant nodes predict themselves and are always correct.
      pred[id] = out.AddNode(pred_fanins,
                             tt.num_vars() == 0
                                 ? ti.function(id)
                                 : Sop(k, tt.IsConst1()
                                              ? std::vector<Cube>{Cube::Universe()}
                                              : std::vector<Cube>{}),
                             "p_" + ti.node_name(id));
      ++result.const_indicators;
      continue;
    }

    Sop on_cover = isop.Cover(tt);
    Sop off_cover = isop.Cover(~tt);
    if (options.sort_cubes) {
      on_cover.SortByLiteralCount();
      off_cover.SortByLiteralCount();
    }
    result.cubes_before += on_cover.NumCubes() + off_cover.NumCubes();

    Sop on_red = on_cover;
    Sop off_red = off_cover;
    if (options.reduce_covers) {
      on_red = ReduceCoverBySigma(mgr, on_cover, fanin_globals, ctx[id],
                                  options.sort_cubes)
                   .cover;
      off_red = ReduceCoverBySigma(mgr, off_cover, fanin_globals, ctx[id],
                                   options.sort_cubes)
                    .cover;
    }
    result.cubes_after += on_red.NumCubes() + off_red.NumCubes();

    // Prediction polarity choice (Eqn. 2): ñ = n¹, or ñ = ¬n⁰ re-expressed
    // as a cover of the complement.
    Sop pred_fn = on_red;
    if (options.choose_cheaper_polarity) {
      const Sop neg_off = isop.Cover(~off_red.ToTruthTable());
      if (SopLiterals(neg_off) < SopLiterals(pred_fn)) pred_fn = neg_off;
    }
    pred[id] = out.AddNode(pred_fanins, pred_fn, "p_" + ti.node_name(id));

    // Indicator e = n⁰ ∨ n¹ (disjoint union ⇒ equals n⁰ ⊕ n¹).
    Sop e_fn(k);
    for (const Cube& c : off_red.cubes()) e_fn.AddCube(c);
    for (const Cube& c : on_red.cubes()) e_fn.AddCube(c);
    e_fn.SortByLiteralCount();
    if (options.simplify_indicators) {
      e_fn = DropInessentialCubes(mgr, e_fn, fanin_globals, ctx[id]);
    }
    if (e_fn.ToTruthTable().IsConst1()) {
      ++result.const_indicators;  // always-correct node; skip from the tree
      continue;
    }
    result.indicator_cubes += e_fn.NumCubes();
    indicator[id] = out.AddNode(pred_fanins, e_fn, "e_" + ti.node_name(id));
  }

  // Per protected output: the prediction image of the driver and the
  // conjunction of the cone's indicators.
  for (std::size_t t = 0; t < targets.size(); ++t) {
    const std::size_t i = targets[t];
    const NodeId driver = ti.output(i).driver;
    const std::string& name = ti.output(i).name;
    SM_CHECK(pred[driver] != kInvalidNode, "critical output has no prediction");

    std::vector<NodeId> es;
    for (NodeId n : cones[t]) {
      if (indicator[n] != kInvalidNode) es.push_back(indicator[n]);
    }
    const NodeId ey = AndTree(out, std::move(es), options.indicator_tree_arity,
                              "ey_" + name);
    MaskingCircuit::Entry entry;
    entry.output_index = i;
    entry.pred_output = out.NumOutputs();
    out.AddOutput("pred_" + name, pred[driver]);
    entry.ind_output = out.NumOutputs();
    out.AddOutput("ind_" + name, ey);
    result.entries.push_back(entry);
  }

  // Cleanup: constant folding, vacuous fanins, structural sharing; then
  // flatten with the bounded eliminate and sweep the leftovers.
  result.network = Sweep(out).network;
  if (options.collapse) {
    result.network =
        Sweep(EliminateNodes(result.network, options.eliminate)).network;
  }
  return result;
}

}  // namespace sm
