#include "map/tech_map.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "network/decompose.h"
#include "util/check.h"

namespace sm {
namespace {

using Mode = TechMapOptions::Mode;

constexpr int kMaxLeaves = kWordVars;  // a cut function fits one word

struct Match {
  const Cell* cell;
  std::array<int, kMaxLeaves> perm;  // perm[pin] = leaf index of the pin
};

// Permutation-complete match table: (leaf count, truth word) -> matches, in
// library order.
class MatchTable {
 public:
  MatchTable(const Library& lib, int max_leaves) {
    for (const Cell* cell : lib.AllCells()) {
      const int k = cell->num_pins();
      if (k < 1 || k > max_leaves) continue;
      std::vector<int> perm(static_cast<std::size_t>(k));
      std::iota(perm.begin(), perm.end(), 0);
      do {
        auto& bucket =
            table_[static_cast<std::size_t>(k)]
                  [cell->function().Remap(perm, k).ToWord()];
        // One permutation per (cell, key) suffices: pin delays are
        // per-pin, so keep the first permutation found for each cell.
        const bool seen = std::any_of(
            bucket.begin(), bucket.end(),
            [cell](const Match& m) { return m.cell == cell; });
        if (!seen) {
          Match m{cell, {}};
          std::copy(perm.begin(), perm.end(), m.perm.begin());
          bucket.push_back(m);
        }
      } while (std::next_permutation(perm.begin(), perm.end()));
    }
  }

  const std::vector<Match>* Find(int k, std::uint64_t truth) const {
    const auto& by_truth = table_[static_cast<std::size_t>(k)];
    const auto it = by_truth.find(truth);
    return it == by_truth.end() ? nullptr : &it->second;
  }

 private:
  std::array<std::unordered_map<std::uint64_t, std::vector<Match>>,
             kMaxLeaves + 1>
      table_;
};

// Sorted leaf ids, stored inline.
struct Cut {
  std::array<NodeId, kMaxLeaves> leaf{};
  int size = 0;

  const NodeId* begin() const { return leaf.data(); }
  const NodeId* end() const { return leaf.data() + size; }

  // Smaller cuts first, then lexicographic.
  bool operator<(const Cut& o) const {
    return size != o.size ? size < o.size
                          : std::lexicographical_compare(begin(), end(),
                                                         o.begin(), o.end());
  }
  bool operator==(const Cut& o) const {
    return size == o.size && std::equal(begin(), end(), o.begin());
  }
};

// Merges two sorted leaf sets into `out`; false when the union exceeds k.
bool MergeCuts(const Cut& a, const Cut& b, int k, Cut& out) {
  int i = 0;
  int j = 0;
  int n = 0;
  while (i < a.size || j < b.size) {
    NodeId next;
    if (j == b.size || (i < a.size && a.leaf[i] < b.leaf[j])) {
      next = a.leaf[i++];
    } else if (i == a.size || b.leaf[j] < a.leaf[i]) {
      next = b.leaf[j++];
    } else {
      next = a.leaf[i++];
      ++j;
    }
    if (n == k || n == kMaxLeaves) return false;
    out.leaf[n++] = next;
  }
  out.size = n;
  return true;
}

// Inserts `c` into `cuts`, which stays sorted, duplicate-free and at most
// `cap` long: after all candidates it holds the first `cap` distinct cuts in
// Cut order, the set and order that sorting every candidate, dropping
// duplicates and truncating would give.
void InsertBounded(std::vector<Cut>& cuts, const Cut& c, std::size_t cap) {
  if (cuts.size() == cap && (cap == 0 || !(c < cuts.back()))) return;
  const auto pos = std::lower_bound(cuts.begin(), cuts.end(), c);
  if (pos != cuts.end() && *pos == c) return;
  const std::ptrdiff_t at = pos - cuts.begin();
  if (cuts.size() == cap) cuts.pop_back();
  cuts.insert(cuts.begin() + at, c);
}

// The subject graph in flat per-node arrays. The mapper's inner loops read
// these instead of the bounds-checked Network accessors.
enum class Op : std::uint8_t {
  kLeaf,  // primary input or constant node: only its trivial cut
  kBuf,
  kInv,
  kAnd,
};

struct FlatSubject {
  std::vector<Op> op;
  std::vector<NodeId> fanin0;
  std::vector<NodeId> fanin1;  // kAnd only

  explicit FlatSubject(const Network& net)
      : op(net.NumNodes(), Op::kLeaf),
        fanin0(net.NumNodes(), kInvalidNode),
        fanin1(net.NumNodes(), kInvalidNode) {
    for (NodeId id = 0; id < net.NumNodes(); ++id) {
      if (net.kind(id) != NodeKind::kLogic) continue;
      const auto& fin = net.fanins(id);
      if (fin.empty()) continue;
      fanin0[id] = fin[0];
      if (fin.size() == 2) {
        fanin1[id] = fin[1];
        op[id] = Op::kAnd;
      } else {
        // A 1-input subject node is an inverter or a buffer
        // (IsAndInvNetwork).
        op[id] = net.function(id).cubes()[0].neg() != 0 ? Op::kInv : Op::kBuf;
      }
    }
  }
};

// Evaluates a node's function over one of its cuts on 64-bit words. The DFS
// from the root stops at every leaf, so a leaf that also lies inside another
// leaf's cone is a free variable. Scratch state is epoch-stamped and reused.
class CutEvaluator {
 public:
  explicit CutEvaluator(const FlatSubject& g)
      : g_(g), value_(g.op.size()), stamp_(g.op.size(), 0) {}

  std::uint64_t Eval(NodeId root, const Cut& cut) {
    ++epoch_;
    for (int i = 0; i < cut.size; ++i) {
      value_[cut.leaf[i]] = kVarWord[i];
      stamp_[cut.leaf[i]] = epoch_;
    }
    stack_.clear();
    stack_.push_back(root);
    while (!stack_.empty()) {
      const NodeId n = stack_.back();
      if (stamp_[n] == epoch_) {
        stack_.pop_back();
        continue;
      }
      const Op op = g_.op[n];
      SM_CHECK(op != Op::kLeaf,
               "cut does not cover the cone (reached a free input)");
      const NodeId f0 = g_.fanin0[n];
      const NodeId f1 = op == Op::kAnd ? g_.fanin1[n] : f0;
      const bool ready0 = stamp_[f0] == epoch_;
      const bool ready1 = stamp_[f1] == epoch_;
      if (!ready0) stack_.push_back(f0);
      if (!ready1 && f1 != f0) stack_.push_back(f1);
      if (!ready0 || !ready1) continue;
      stack_.pop_back();
      switch (op) {
        case Op::kAnd:
          value_[n] = value_[f0] & value_[f1];
          break;
        case Op::kInv:
          value_[n] = ~value_[f0];
          break;
        default:
          value_[n] = value_[f0];
          break;
      }
      stamp_[n] = epoch_;
    }
    return value_[root] & MintermMask(cut.size);
  }

 private:
  const FlatSubject& g_;
  std::vector<std::uint64_t> value_;
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 0;
  std::vector<NodeId> stack_;
};

struct Choice {
  const Cell* cell = nullptr;
  const Match* match = nullptr;  // null for tie cells
  std::size_t cut = 0;           // arena index of the chosen cut
  double cost = std::numeric_limits<double>::infinity();     // area flow
  double arrival = std::numeric_limits<double>::infinity();  // delay mode
};

}  // namespace

TechMapResult TechMap(const Network& subject, const Library& lib,
                      const TechMapOptions& options) {
  SM_REQUIRE(IsAndInvNetwork(subject),
             "TechMap requires an AND2/INV subject graph");
  SM_REQUIRE(lib.SmallestInverter() != nullptr, "library lacks an inverter");
  const int k = std::min({options.max_cut_leaves, lib.MaxPins(), kMaxLeaves});
  SM_REQUIRE(k >= 2, "mapper needs cuts of at least 2 leaves");
  const MatchTable matches(lib, k);

  const std::size_t n = subject.NumNodes();
  const auto& fanouts = subject.Fanouts();
  const FlatSubject g(subject);

  // --- cut enumeration + matching DP, one topological pass -------------
  // Node id owns arena[first[id], first[id + 1]): its trivial cut, then the
  // non-trivial ones. A node keeps at most max_cuts_per_node cuts plus the
  // trivial cut and the re-appended anchor, so the arena never reallocates.
  const std::size_t max_cuts =
      static_cast<std::size_t>(std::max(0, options.max_cuts_per_node));
  std::vector<Cut> arena;
  arena.reserve(n * (max_cuts + 2));
  std::vector<std::size_t> first(n + 1, 0);
  std::vector<Cut> mine;  // scratch: the node's kept cuts
  mine.reserve(max_cuts + 1);
  CutEvaluator evaluator(g);
  std::vector<Choice> best(n);
  for (NodeId id = 0; id < n; ++id) {
    first[id] = arena.size();
    Cut trivial;  // used by fanouts
    trivial.leaf[0] = id;
    trivial.size = 1;
    arena.push_back(trivial);
    if (g.op[id] == Op::kLeaf) continue;

    const NodeId f0 = g.fanin0[id];
    const Cut* const a = arena.data() + first[f0];
    const Cut* const a_end = arena.data() + first[f0 + 1];
    // Keep the smallest distinct cuts, capped, in Cut order.
    mine.clear();
    if (g.op[id] != Op::kAnd) {
      for (const Cut* ca = a; ca != a_end; ++ca) {
        InsertBounded(mine, *ca, max_cuts);
      }
    } else {
      const NodeId f1 = g.fanin1[id];
      const Cut* const b = arena.data() + first[f1];
      const Cut* const b_end = arena.data() + first[f1 + 1];
      Cut m;
      for (const Cut* ca = a; ca != a_end; ++ca) {
        for (const Cut* cb = b; cb != b_end; ++cb) {
          if (MergeCuts(*ca, *cb, k, m)) InsertBounded(mine, m, max_cuts);
        }
      }
    }
    // The direct-fanin cut is the feasibility anchor (it always matches an
    // AND2 or inverter); re-append it if pruning dropped it.
    {
      Cut direct;
      direct.leaf[0] = f0;
      direct.size = 1;
      const NodeId f1 = g.fanin1[id];
      if (g.op[id] == Op::kAnd && f1 != f0) {
        direct.leaf[0] = std::min(f0, f1);
        direct.leaf[1] = std::max(f0, f1);
        direct.size = 2;
      }
      if (std::find(mine.begin(), mine.end(), direct) == mine.end()) {
        mine.push_back(direct);
      }
    }
    // Publish the non-trivial cuts for fanouts behind the trivial one.
    const std::size_t own = arena.size();
    arena.insert(arena.end(), mine.begin(), mine.end());

    // DP over matches of each cut.
    Choice& my = best[id];
    for (std::size_t c = own; c < arena.size(); ++c) {
      const Cut& cut = arena[c];
      const std::uint64_t f = evaluator.Eval(id, cut);
      // A constant cut function means the node is structurally constant
      // (e.g. AND of a signal with its inverse); a tie cell realizes it.
      if (f == 0 || f == MintermMask(cut.size)) {
        const Cell* tie_cell = lib.SmallestConstant(f != 0);
        if (tie_cell != nullptr &&
            (options.mode == Mode::kArea ? tie_cell->area() < my.cost
                                         : 0.0 < my.arrival)) {
          my = Choice{tie_cell, nullptr, c, tie_cell->area(), 0.0};
        }
        continue;
      }
      const std::vector<Match>* bucket = matches.Find(cut.size, f);
      if (bucket == nullptr) continue;
      for (const Match& m : *bucket) {
        double flow = m.cell->area();
        for (NodeId leaf : cut) {
          if (g.op[leaf] == Op::kLeaf) continue;
          const double refs =
              std::max<std::size_t>(1, fanouts[leaf].size());
          flow += best[leaf].cost / static_cast<double>(refs);
        }
        double arrival = 0;
        for (int pin = 0; pin < m.cell->num_pins(); ++pin) {
          const NodeId leaf = cut.leaf[m.perm[pin]];
          const double leaf_arr =
              g.op[leaf] == Op::kLeaf ? 0.0 : best[leaf].arrival;
          arrival = std::max(arrival, leaf_arr + m.cell->pin_delay(pin));
        }
        const bool better =
            options.mode == Mode::kArea
                ? (flow < my.cost ||
                   (flow == my.cost && arrival < my.arrival))
                : (arrival < my.arrival ||
                   (arrival == my.arrival && flow < my.cost));
        if (better) {
          my = Choice{m.cell, &m, c, flow, arrival};
        }
      }
    }
    SM_CHECK(my.cell != nullptr,
             "no library match for node " << subject.node_name(id)
                                          << " — library incomplete");
    // Leaf nodes (kLeaf) keep arrival 0 / cost 0 implicitly.
  }

  // --- extraction -------------------------------------------------------
  TechMapResult result{MappedNetlist(subject.name()),
                       std::vector<GateId>(n, kInvalidGate)};
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
    const Cut& cut = arena[ch.cut];
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
