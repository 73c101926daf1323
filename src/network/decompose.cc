#include "network/decompose.h"

#include <algorithm>
#include <utility>

#include "boolean/isop.h"
#include "util/check.h"
#include "util/strings.h"

namespace sm {
namespace {

// Node kinds of the builder; the emitted cover of each is indexed by it.
enum class Kind : std::uint8_t { kInput, kConst0, kConst1, kAnd, kInv };

// Builds AND2/INV structure in flat per-node arrays indexed by builder id,
// with structural hashing and per-node arrival estimates (INV = 1, AND2 = 2 —
// the unit-delay ratios; only the relative ordering matters). Trees are
// combined Huffman-style: earliest-arriving operands first, which minimizes
// the tree's completion time.
class Builder {
 public:
  // Inputs and constants are ready at time 0.
  NodeId Leaf(Kind kind) { return Push(kind, kInvalidNode, kInvalidNode, 0); }

  NodeId And(NodeId a, NodeId b) {
    if (a > b) std::swap(a, b);
    if (2 * (num_ands_ + 1) > and_slots_.size()) GrowAndTable();
    const std::size_t mask = and_slots_.size() - 1;
    std::size_t slot = AndSlot(a, b);
    for (; and_slots_[slot] != kInvalidNode; slot = (slot + 1) & mask) {
      const NodeId n = and_slots_[slot];
      if (fanin_a_[n] == a && fanin_b_[n] == b) return n;
    }
    const NodeId id =
        Push(Kind::kAnd, a, b, std::max(arrival_[a], arrival_[b]) + 2);
    and_slots_[slot] = id;
    ++num_ands_;
    return id;
  }

  NodeId Not(NodeId a) {
    if (inverter_[a] != kInvalidNode) return inverter_[a];
    const NodeId id = Push(Kind::kInv, a, kInvalidNode, arrival_[a] + 1);
    inverter_[a] = id;
    return id;
  }

  // OR-of-AND structure for a cover; `leaf` maps SOP variables to nodes.
  NodeId BuildSop(const Sop& f, const std::vector<NodeId>& leaf) {
    SM_CHECK(!f.cubes().empty(), "constant covers handled by caller");
    roots_.clear();
    for (const Cube& c : f.cubes()) {
      literals_.clear();
      for (int v = 0; v < f.num_vars(); ++v) {
        if (!c.HasVar(v)) continue;
        const NodeId l = leaf[static_cast<std::size_t>(v)];
        literals_.push_back(c.VarPhase(v) ? l : Not(l));
      }
      SM_CHECK(!literals_.empty(), "universe cube in a non-constant SOP");
      roots_.push_back(AndTree(literals_));
    }
    if (roots_.size() == 1) return roots_[0];
    for (NodeId& r : roots_) r = Not(r);  // De Morgan OR
    return Not(AndTree(roots_));
  }

  std::size_t size() const { return kind_.size(); }
  Kind kind(NodeId id) const { return kind_[id]; }
  NodeId fanin_a(NodeId id) const { return fanin_a_[id]; }
  NodeId fanin_b(NodeId id) const { return fanin_b_[id]; }
  int arrival(NodeId id) const { return arrival_[id]; }

 private:
  NodeId Push(Kind kind, NodeId a, NodeId b, int arrival) {
    const NodeId id = static_cast<NodeId>(kind_.size());
    kind_.push_back(kind);
    fanin_a_.push_back(a);
    fanin_b_.push_back(b);
    arrival_.push_back(arrival);
    inverter_.push_back(kInvalidNode);
    return id;
  }

  // Combines `ops` (consumed) with the same heap operations, and hence the
  // same pop order, ties included, as a std::priority_queue over them.
  NodeId AndTree(std::vector<NodeId>& ops) {
    const auto later = [this](NodeId x, NodeId y) {
      return arrival_[x] > arrival_[y];
    };
    std::make_heap(ops.begin(), ops.end(), later);
    while (ops.size() > 1) {
      std::pop_heap(ops.begin(), ops.end(), later);
      const NodeId a = ops.back();
      ops.pop_back();
      std::pop_heap(ops.begin(), ops.end(), later);
      const NodeId b = ops.back();
      ops.pop_back();
      ops.push_back(And(a, b));
      std::push_heap(ops.begin(), ops.end(), later);
    }
    return ops[0];
  }

  std::size_t AndSlot(NodeId a, NodeId b) const {
    std::uint64_t key = (static_cast<std::uint64_t>(a) << 32) | b;
    key *= 0x9e3779b97f4a7c15ull;
    return static_cast<std::size_t>(key ^ (key >> 32)) &
           (and_slots_.size() - 1);
  }

  // Open-addressing AND table (power-of-two capacity, linear probing, at
  // most half full); slots hold builder ids, keyed by their fanin pair.
  void GrowAndTable() {
    std::vector<NodeId> old(std::max<std::size_t>(1024, 2 * and_slots_.size()),
                            kInvalidNode);
    old.swap(and_slots_);
    const std::size_t mask = and_slots_.size() - 1;
    for (NodeId n : old) {
      if (n == kInvalidNode) continue;
      std::size_t slot = AndSlot(fanin_a_[n], fanin_b_[n]);
      while (and_slots_[slot] != kInvalidNode) slot = (slot + 1) & mask;
      and_slots_[slot] = n;
    }
  }

  std::vector<Kind> kind_;
  std::vector<NodeId> fanin_a_;
  std::vector<NodeId> fanin_b_;
  std::vector<int> arrival_;
  std::vector<NodeId> inverter_;  // the INV of each node, once built
  std::vector<NodeId> and_slots_;
  std::size_t num_ands_ = 0;
  std::vector<NodeId> literals_;  // AndTree operands of one cube
  std::vector<NodeId> roots_;     // cube roots of one cover
};

}  // namespace

bool IsAndInvNetwork(const Network& net) {
  for (NodeId id = 0; id < net.NumNodes(); ++id) {
    if (net.kind(id) != NodeKind::kLogic) continue;
    const Sop& f = net.function(id);
    const bool is_and2 = f.num_vars() == 2 && f.NumCubes() == 1 &&
                         f.cubes()[0].NumLiterals() == 2 &&
                         f.cubes()[0].pos() == 0b11;
    const bool is_inv = f.num_vars() == 1 && f.NumCubes() == 1 &&
                        f.cubes()[0].neg() == 0b1 && f.cubes()[0].pos() == 0;
    const bool is_buf = f.num_vars() == 1 && f.NumCubes() == 1 &&
                        f.cubes()[0].pos() == 0b1 && f.cubes()[0].neg() == 0;
    const bool is_const = f.num_vars() == 0;
    if (!is_and2 && !is_inv && !is_buf && !is_const) return false;
  }
  return true;
}

DecomposeResult DecomposeToAndInv(const Network& net) {
  DecomposeResult result{Network(net.name()),
                         std::vector<NodeId>(net.NumNodes(), kInvalidNode)};
  std::vector<NodeId>& node_map = result.node_map;
  Builder b;
  // ISOP of ~f depends only on f's truth table; narrow nodes repeat a few
  // hundred distinct functions, so their complement covers are memoized.
  IsopMemo isop;
  std::vector<NodeId> leaf;

  for (NodeId id = 0; id < net.NumNodes(); ++id) {
    if (net.kind(id) == NodeKind::kInput) {
      node_map[id] = b.Leaf(Kind::kInput);
      continue;
    }
    const Sop& f = net.function(id);
    const int nv = f.num_vars();
    const bool narrow = nv <= kWordVars;
    const std::uint64_t word = narrow ? f.ToTruthWord() : 0;
    // Same verdict as f.IsConst1(), without building a TruthTable.
    const bool const1 = narrow ? word == MintermMask(nv) : f.IsConst1();
    if (nv == 0 || f.IsConst0() || const1) {
      node_map[id] = b.Leaf(const1 ? Kind::kConst1 : Kind::kConst0);
      continue;
    }

    leaf.clear();
    for (NodeId fin : net.fanins(id)) {
      SM_CHECK(node_map[fin] != kInvalidNode, "fanin not yet decomposed");
      leaf.push_back(node_map[fin]);
    }

    // Dual-polarity decomposition: build both the cover of f and the
    // inverted cover of ~f, keep the earlier-arriving root. Structural
    // hashing dedupes shared pieces; the losing branch is pruned below.
    const NodeId pos_root = b.BuildSop(f, leaf);
    NodeId chosen = pos_root;
    Sop comp;  // empty: no complement cover over kMaxTruthVars variables
    if (narrow) {
      comp = isop.Cover(nv, ~word);
    } else if (nv <= kMaxTruthVars) {
      comp = isop.Cover(~f.ToTruthTable());
    }
    if (!comp.cubes().empty()) {
      const NodeId neg_root = b.Not(b.BuildSop(comp, leaf));
      if (b.arrival(neg_root) < b.arrival(pos_root)) chosen = neg_root;
    }
    node_map[id] = chosen;
  }

  // Keep only nodes reachable from the outputs (inputs are always kept).
  // Builder ids are topological, so one backward sweep marks the cones.
  std::vector<char> live(b.size(), 0);
  for (const auto& o : net.outputs()) live[node_map[o.driver]] = 1;
  for (NodeId id = static_cast<NodeId>(b.size()); id-- > 0;) {
    if (!live[id]) continue;
    for (NodeId f : {b.fanin_a(id), b.fanin_b(id)}) {
      if (f != kInvalidNode) live[f] = 1;
    }
  }

  // Emit the live nodes once, in builder order, each named n<builder id>.
  const Sop cover[] = {Sop(0), Sop::Const0(0), Sop::Const1(0),
                       Sop(2, {Cube(0b11, 0)}), Sop(1, {Cube(0, 0b1)})};
  Network& out = result.network;
  std::vector<NodeId> remap(b.size(), kInvalidNode);
  std::size_t next_input = 0;
  for (NodeId id = 0; id < b.size(); ++id) {
    if (b.kind(id) == Kind::kInput) {
      remap[id] = out.AddInput(net.node_name(net.inputs()[next_input++]));
      continue;
    }
    if (!live[id]) continue;
    std::vector<NodeId> fanins;
    for (NodeId f : {b.fanin_a(id), b.fanin_b(id)}) {
      if (f != kInvalidNode) fanins.push_back(remap[f]);
    }
    remap[id] = out.AddNode(std::move(fanins),
                            cover[static_cast<int>(b.kind(id))],
                            IndexedName("n", id));
  }
  for (const auto& o : net.outputs()) {
    out.AddOutput(o.name, remap[node_map[o.driver]]);
  }
  for (NodeId& n : node_map) {
    if (n != kInvalidNode) n = remap[n];
  }
  out.CheckInvariants();
  return result;
}

}  // namespace sm
