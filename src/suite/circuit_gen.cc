#include "suite/circuit_gen.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "network/topo.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/strings.h"

namespace sm {
namespace {

// Random truth table over k variables that depends on every variable (so
// the generated paths are sensitizable) and is not constant.
TruthTable RandomDependentFunction(Rng& rng, int k) {
  for (int attempt = 0; attempt < 64; ++attempt) {
    TruthTable tt(k);
    for (std::uint64_t m = 0; m < tt.num_minterms_space(); ++m) {
      tt.Set(m, rng.Chance(0.5));
    }
    if (tt.IsConst0() || tt.IsConst1()) continue;
    bool full_support = true;
    for (int v = 0; v < k && full_support; ++v) {
      full_support = tt.DependsOn(v);
    }
    if (full_support) return tt;
  }
  // Fall back to parity, which always depends on everything.
  TruthTable tt(k);
  for (std::uint64_t m = 0; m < tt.num_minterms_space(); ++m) {
    tt.Set(m, __builtin_popcountll(m) & 1);
  }
  return tt;
}

struct Slice {
  std::vector<NodeId> pool;  // inputs + generated nodes, creation order
  std::vector<int> level;    // parallel to pool
  std::size_t num_inputs = 0;
};

// Picks up to `k` distinct fanins whose level is below `level_cap`, with a
// locality bias toward recent pool entries (stretches the bulk into layers
// up to the cap, then keeps it there).
std::vector<NodeId> PickFanins(Rng& rng, const Slice& slice, int k,
                               int level_cap) {
  const std::size_t n = slice.pool.size();
  std::vector<NodeId> out;
  for (int attempt = 0; attempt < 300 && static_cast<int>(out.size()) < k;
       ++attempt) {
    std::size_t idx;
    const std::size_t window = std::max<std::size_t>(8, n / 5);
    if (rng.Chance(0.7) && n > window) {
      idx = n - 1 - rng.Below(window);
    } else {
      idx = rng.Below(n);
    }
    if (slice.level[idx] >= level_cap) continue;
    const NodeId cand = slice.pool[idx];
    if (std::find(out.begin(), out.end(), cand) == out.end()) {
      out.push_back(cand);
    }
  }
  return out;
}

// Picks an early-settling signal: mostly slice inputs (whose sensitization
// conditions are independent literals, keeping the chain satisfiable), with
// an occasional shallow node.
NodeId PickEarly(Rng& rng, const Slice& slice) {
  if (rng.Chance(0.8)) return slice.pool[rng.Below(slice.num_inputs)];
  for (int attempt = 0; attempt < 100; ++attempt) {
    const std::size_t idx = rng.Below(slice.pool.size());
    if (slice.level[idx] <= 2) return slice.pool[idx];
  }
  return slice.pool[rng.Below(slice.num_inputs)];
}

}  // namespace

Network GenerateCircuit(const CircuitSpec& spec) {
  SM_REQUIRE(spec.num_inputs >= 2, "need at least two inputs");
  SM_REQUIRE(spec.num_outputs >= 1, "need at least one output");
  SM_REQUIRE(spec.target_nodes >= 1, "need at least one node");
  Rng rng(spec.seed != 0 ? spec.seed : HashName(spec.name.c_str()));
  Network net(spec.name);

  std::vector<NodeId> inputs;
  inputs.reserve(static_cast<std::size_t>(spec.num_inputs));
  for (int i = 0; i < spec.num_inputs; ++i) {
    inputs.push_back(net.AddInput(IndexedName("pi", i)));
  }

  // --- slice the inputs -------------------------------------------------
  std::vector<Slice> slices;
  auto add_slice = [&slices](std::vector<NodeId> pins) {
    Slice s;
    s.pool = std::move(pins);
    s.level.assign(s.pool.size(), 0);
    s.num_inputs = s.pool.size();
    slices.push_back(std::move(s));
  };
  if (spec.profile == CircuitSpec::Profile::kDenseControl) {
    add_slice(inputs);
  } else {
    const int width = std::max(4, spec.slice_width);
    std::vector<NodeId> chunk;
    for (int i = 0; i < spec.num_inputs; ++i) {
      chunk.push_back(inputs[static_cast<std::size_t>(i)]);
      if (static_cast<int>(chunk.size()) == width) {
        add_slice(std::move(chunk));
        chunk.clear();
      }
    }
    if (!chunk.empty()) {
      if (chunk.size() >= 2 || slices.empty()) {
        add_slice(std::move(chunk));
      } else {
        Slice& last = slices.back();
        for (NodeId id : chunk) {
          last.pool.push_back(id);
          last.level.push_back(0);
          ++last.num_inputs;
        }
      }
    }
  }
  const std::size_t num_slices = slices.size();

  // --- bulk logic, level-capped, distributed across slices ---------------
  // The bulk forms the "body" of the circuit; its depth is capped so the
  // spines below are the structural *and* functional critical paths.
  const int bulk_cap = 6;
  const int spine_outputs = std::max(
      1, static_cast<int>(std::lround(spec.spine_output_fraction *
                                      spec.num_outputs)));
  const int spine_len = std::max(
      6, static_cast<int>(std::lround(spec.spine_depth_factor * 3.0 *
                                      bulk_cap)));
  const int bulk_nodes =
      std::max(1, spec.target_nodes - spine_outputs * spine_len);
  for (int g = 0; g < bulk_nodes; ++g) {
    Slice& slice = slices[static_cast<std::size_t>(g) % num_slices];
    const int k = static_cast<int>(rng.Range(2, 3));
    std::vector<NodeId> fanins = PickFanins(rng, slice, k, bulk_cap);
    if (static_cast<int>(fanins.size()) < 2) continue;
    int lvl = 0;
    for (std::size_t i = 0; i < fanins.size(); ++i) {
      // Level lookup: fanins come from this slice's pool.
      for (std::size_t j = 0; j < slice.pool.size(); ++j) {
        if (slice.pool[j] == fanins[i]) {
          lvl = std::max(lvl, slice.level[j] + 1);
          break;
        }
      }
    }
    const TruthTable tt =
        RandomDependentFunction(rng, static_cast<int>(fanins.size()));
    slice.pool.push_back(net.AddNode(fanins, Sop::FromTruthTable(tt)));
    slice.level.push_back(lvl);
  }

  // Light cross-slice mixing so outputs see at most two slices of support
  // (BDD-friendly, like real decoded control logic).
  if (num_slices > 1) {
    for (std::size_t s = 0; s + 1 < num_slices; ++s) {
      const auto a = PickFanins(rng, slices[s], 1, bulk_cap);
      const auto b = PickFanins(rng, slices[s + 1], 1, bulk_cap);
      if (a.empty() || b.empty() || a[0] == b[0]) continue;
      const TruthTable tt = RandomDependentFunction(rng, 2);
      slices[s].pool.push_back(
          net.AddNode({a[0], b[0]}, Sop::FromTruthTable(tt)));
      slices[s].level.push_back(bulk_cap);
    }
  }

  // --- speed-path spines ---------------------------------------------------
  // Monotone AND/OR chains from a primary input, with early-settling side
  // signals and occasional chain inverters. A chain of length L is
  // functionally sensitized end-to-end by ~2^-L of the input space, so the
  // exact SPCF is sparse but non-empty — the regime the paper reports
  // (e.g. C432: |Σ| ≈ 2^-11 of the space). Structurally the spines are
  // ~spine_depth_factor× deeper than the bulk, making them the speed-paths.
  // Each spine carries a random *witness* assignment of the primary inputs;
  // a side's link type is chosen so the side takes its non-controlling value
  // under the witness (AND for a side at 1, OR for a side at 0). The witness
  // then sensitizes the whole chain, so the exact SPCF is non-empty by
  // construction even when sides share logic.
  std::vector<bool> node_value(net.NumNodes(), false);
  auto eval_under_witness = [&](NodeId id) {
    if (id >= node_value.size()) node_value.resize(id + 1, false);
    if (net.kind(id) == NodeKind::kInput) return;
    const auto& fanins = net.fanins(id);
    std::uint32_t m = 0;
    for (std::size_t i = 0; i < fanins.size(); ++i) {
      if (node_value[fanins[i]]) m |= 1u << i;
    }
    node_value[id] = net.function(id).EvalMinterm(m);
  };
  for (NodeId id = 0; id < net.NumNodes(); ++id) {
    if (net.kind(id) == NodeKind::kInput) {
      node_value[id] = rng.Chance(0.5);
    } else {
      eval_under_witness(id);
    }
  }

  std::vector<NodeId> spine_ends;
  for (int sp = 0; sp < spine_outputs; ++sp) {
    Slice& slice = slices[rng.Below(num_slices)];
    NodeId chain = slice.pool[rng.Below(slice.num_inputs)];
    for (int link = 0; link < spine_len; ++link) {
      if (link % 5 == 4) {  // deterministic inverter placement keeps the
        // per-spine delay spread small, so most spines are speed-paths
        chain = net.AddNode({chain}, Sop(1, {Cube::Literal(0, false)}));
        eval_under_witness(chain);
      }
      const NodeId side = PickEarly(rng, slice);
      if (side == chain) continue;
      const bool use_and = node_value[side];  // non-controlling under witness
      Sop fn(2);
      if (use_and) {  // AND: side non-controlling value is 1
        fn.AddCube(Cube::Literal(0, true).Intersect(Cube::Literal(1, true)));
      } else {  // OR: side non-controlling value is 0
        fn.AddCube(Cube::Literal(0, true));
        fn.AddCube(Cube::Literal(1, true));
      }
      chain = net.AddNode({chain, side}, std::move(fn));
      eval_under_witness(chain);
    }
    spine_ends.push_back(chain);
    slice.pool.push_back(chain);
    slice.level.push_back(bulk_cap + spine_len);
  }

  // --- outputs ---------------------------------------------------------------
  std::vector<NodeId> drivers = spine_ends;
  std::vector<bool> used(net.NumNodes(), false);
  for (NodeId d : drivers) used[d] = true;
  std::size_t slice_cursor = 0;
  while (static_cast<int>(drivers.size()) < spec.num_outputs) {
    bool found = false;
    for (std::size_t tries = 0; tries < num_slices && !found; ++tries) {
      Slice& slice = slices[(slice_cursor + tries) % num_slices];
      for (std::size_t i = slice.pool.size(); i-- > 0;) {
        const NodeId cand = slice.pool[i];
        if (used[cand] || net.kind(cand) == NodeKind::kInput) continue;
        if (std::find(spine_ends.begin(), spine_ends.end(), cand) !=
            spine_ends.end()) {
          continue;
        }
        drivers.push_back(cand);
        used[cand] = true;
        found = true;
        break;
      }
    }
    slice_cursor = (slice_cursor + 1) % num_slices;
    if (!found) {
      const Slice& slice = slices[rng.Below(num_slices)];
      drivers.push_back(slice.pool[rng.Below(slice.pool.size())]);
    }
  }
  rng.Shuffle(drivers);
  for (int o = 0; o < spec.num_outputs; ++o) {
    net.AddOutput(IndexedName("po", o),
                  drivers[static_cast<std::size_t>(o)]);
  }

  net.CheckInvariants();
  return net;
}

}  // namespace sm
