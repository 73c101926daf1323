#include "network/sweep.h"

#include <algorithm>
#include <unordered_map>

#include "boolean/isop.h"
#include "util/check.h"

namespace sm {
namespace {

struct Info {
  bool is_const = false;
  bool const_value = false;
  // Phase-aware alias: this node computes alias (or its complement).
  NodeId alias = kInvalidNode;
  bool alias_neg = false;
  std::vector<NodeId> eff_fanins;  // resolved roots, deduplicated
  TruthTable tt;                   // over eff_fanins
};

struct Resolved {
  NodeId root;
  bool neg;
};

// Follows alias chains, accumulating complementation.
Resolved Resolve(const std::vector<Info>& info, NodeId id) {
  bool neg = false;
  while (info[id].alias != kInvalidNode) {
    neg ^= info[id].alias_neg;
    id = info[id].alias;
  }
  return {id, neg};
}

// Structural-hash key: a node's function over its resolved fanins.
struct NodeKey {
  TruthTable tt;
  std::vector<NodeId> fanins;
  bool operator==(const NodeKey& o) const = default;
};

struct NodeKeyHash {
  std::size_t operator()(const NodeKey& key) const {
    std::uint64_t h = key.tt.Hash();
    for (NodeId f : key.fanins) {
      h = (h ^ f) * 0x9e3779b97f4a7c15ull;
      h ^= h >> 29;
    }
    return static_cast<std::size_t>(h);
  }
};

// Complements variable `v` inside the table: f(.., x_v, ..) -> f(.., ~x_v, ..).
TruthTable FlipVar(const TruthTable& tt, int v) {
  const TruthTable x = TruthTable::Var(v, tt.num_vars());
  return (~x & tt.Cofactor(v, true)) | (x & tt.Cofactor(v, false));
}

}  // namespace

SweepResult Sweep(const Network& net, const SweepOptions& options) {
  const std::size_t n = net.NumNodes();
  std::vector<Info> info(n);

  // Structural-hash table: (function, resolved fanins) -> representative
  // old node. The complement form is also probed so f and ~f share logic.
  std::unordered_map<NodeKey, NodeId, NodeKeyHash> structural;

  // Pass 1: fold constants, absorb buffers/inverters, drop vacuous and
  // duplicate fanins, structurally hash.
  for (NodeId id = 0; id < n; ++id) {
    Info& my = info[id];
    if (net.kind(id) == NodeKind::kInput) continue;

    const auto& fanins = net.fanins(id);
    TruthTable tt = net.function(id).ToTruthTable();
    std::vector<Resolved> resolved(fanins.size());
    for (std::size_t i = 0; i < fanins.size(); ++i) {
      resolved[i] = Resolve(info, fanins[i]);
      const Info& fi = info[resolved[i].root];
      if (options.propagate_constants && fi.is_const) {
        tt = tt.Cofactor(static_cast<int>(i),
                         fi.const_value ^ resolved[i].neg);
      } else if (resolved[i].neg) {
        tt = FlipVar(tt, static_cast<int>(i));
        resolved[i].neg = false;
      }
    }
    // Merge variables that resolve to the same driver: restrict x_j := x_i.
    for (std::size_t i = 0; i < fanins.size(); ++i) {
      if (info[resolved[i].root].is_const) continue;
      for (std::size_t j = i + 1; j < fanins.size(); ++j) {
        if (resolved[j].root != resolved[i].root ||
            info[resolved[j].root].is_const) {
          continue;
        }
        const TruthTable xi =
            TruthTable::Var(static_cast<int>(i), tt.num_vars());
        tt = (~xi & tt.Cofactor(static_cast<int>(j), false)) |
             (xi & tt.Cofactor(static_cast<int>(j), true));
      }
    }

    // Keep only support variables (constant fanins are vacuous by now).
    std::vector<NodeId> eff;
    std::vector<int> perm(fanins.size(), 0);
    bool changed = false;
    for (std::size_t i = 0; i < fanins.size(); ++i) {
      if ((options.drop_vacuous_fanins || info[resolved[i].root].is_const) &&
          !tt.DependsOn(static_cast<int>(i))) {
        changed = true;
        continue;
      }
      perm[i] = static_cast<int>(eff.size());
      eff.push_back(resolved[i].root);
      changed |= (resolved[i].root != fanins[i]);
    }
    if (changed || eff.size() != fanins.size()) {
      for (std::size_t i = 0; i < fanins.size(); ++i) {
        if (!tt.DependsOn(static_cast<int>(i))) {
          tt = tt.Cofactor(static_cast<int>(i), false);
        }
      }
      tt = tt.Remap(perm, std::max<int>(1, static_cast<int>(eff.size())));
    }

    if (eff.empty() || tt.IsConst0() || tt.IsConst1()) {
      my.is_const = true;
      my.const_value = tt.IsConst1();
      continue;
    }
    if (options.collapse_buffers && eff.size() == 1 && tt.num_vars() == 1) {
      my.alias = eff[0];
      my.alias_neg = (tt == ~TruthTable::Var(0, 1));
      continue;
    }
    if (options.hash_identical_nodes) {
      NodeKey key{tt, eff};
      const auto pos = structural.find(key);
      if (pos != structural.end()) {
        my.alias = pos->second;
        my.alias_neg = false;
        continue;
      }
      key.tt = ~tt;
      const auto negp = structural.find(key);
      if (negp != structural.end()) {
        my.alias = negp->second;
        my.alias_neg = true;
        continue;
      }
      key.tt = tt;
      structural.emplace(std::move(key), id);
    }
    my.eff_fanins = std::move(eff);
    my.tt = std::move(tt);
  }

  // Pass 2: reachability from outputs through effective fanins.
  std::vector<bool> live(n, false);
  {
    std::vector<NodeId> stack;
    for (const auto& o : net.outputs()) {
      const Resolved r = Resolve(info, o.driver);
      if (!info[r.root].is_const) stack.push_back(r.root);
    }
    while (!stack.empty()) {
      const NodeId id = stack.back();
      stack.pop_back();
      if (live[id]) continue;
      live[id] = true;
      for (NodeId f : info[id].eff_fanins) {
        SM_CHECK(info[f].alias == kInvalidNode,
                 "effective fanins must be alias-resolved");
        if (!info[f].is_const) stack.push_back(f);
      }
    }
  }

  // Pass 3: rebuild. All primary inputs are preserved (the PI interface is
  // part of the circuit identity even when an input became vacuous).
  SweepResult result{Network(net.name()), std::vector<NodeId>(n, kInvalidNode),
                     0, 0};
  Network& out = result.network;
  IsopMemo isop;

  for (NodeId id = 0; id < n; ++id) {
    if (net.kind(id) == NodeKind::kInput) {
      result.node_map[id] = out.AddInput(net.node_name(id));
      continue;
    }
    if (!live[id] || info[id].alias != kInvalidNode) continue;
    const Info& my = info[id];
    std::vector<NodeId> new_fanins;
    new_fanins.reserve(my.eff_fanins.size());
    for (NodeId f : my.eff_fanins) {
      const NodeId mapped = result.node_map[f];
      SM_CHECK(mapped != kInvalidNode, "live node has an unmapped fanin");
      new_fanins.push_back(mapped);
    }
    result.node_map[id] =
        out.AddNode(std::move(new_fanins), isop.Cover(my.tt),
                    net.node_name(id));
  }

  auto fresh_name = [&out](std::string base) {
    while (out.FindByName(base) != kInvalidNode) base += "_";
    return base;
  };

  // Negated aliases that are still referenced materialize as inverters,
  // shared per root; constants materialize as zero-fanin nodes per polarity.
  std::unordered_map<NodeId, NodeId> inverter_of;  // root old id -> new inv
  auto get_inverter = [&](NodeId root) {
    const auto it = inverter_of.find(root);
    if (it != inverter_of.end()) return it->second;
    const NodeId base = result.node_map[root];
    SM_CHECK(base != kInvalidNode, "inverter over removed node");
    const NodeId inv =
        out.AddNode({base}, Sop(1, {Cube::Literal(0, false)}),
                    fresh_name(net.node_name(root) + "_n"));
    inverter_of.emplace(root, inv);
    return inv;
  };
  NodeId const_node[2] = {kInvalidNode, kInvalidNode};
  auto get_const = [&](bool value) {
    NodeId& slot = const_node[value ? 1 : 0];
    if (slot == kInvalidNode) {
      slot = out.AddNode({}, value ? Sop::Const1(0) : Sop::Const0(0),
                         fresh_name(value ? "_const1" : "_const0"));
      ++result.folded_constants;
    }
    return slot;
  };

  for (const auto& o : net.outputs()) {
    const Resolved r = Resolve(info, o.driver);
    NodeId driver;
    if (info[r.root].is_const) {
      driver = get_const(info[r.root].const_value ^ r.neg);
    } else if (r.neg) {
      driver = get_inverter(r.root);
    } else {
      driver = result.node_map[r.root];
      SM_CHECK(driver != kInvalidNode, "output driver was swept away");
    }
    out.AddOutput(o.name, driver);
  }

  // Aliased nodes map to their representative (or its materialized
  // inverter when the alias is negated and an inverter exists).
  for (NodeId id = 0; id < n; ++id) {
    if (info[id].alias == kInvalidNode) continue;
    const Resolved r = Resolve(info, id);
    if (info[r.root].is_const) continue;
    if (!r.neg) {
      result.node_map[id] = result.node_map[r.root];
    } else {
      const auto it = inverter_of.find(r.root);
      if (it != inverter_of.end()) result.node_map[id] = it->second;
    }
  }

  if (net.NumLogicNodes() > out.NumLogicNodes()) {
    result.removed_nodes = net.NumLogicNodes() - out.NumLogicNodes();
  }
  out.CheckInvariants();
  return result;
}

}  // namespace sm
