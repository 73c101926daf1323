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

constexpr int kMaxLeaves = 6;  // a cut function fits one 64-bit word

// Projection functions: bit m of kVar[i] is bit i of minterm m, the layout
// of TruthTable's first word.
constexpr std::uint64_t kVar[kMaxLeaves] = {
    0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
    0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};

// The 2^k valid minterm bits of a k-variable word.
std::uint64_t MintermMask(int k) {
  return k == kMaxLeaves ? ~0ull : (1ull << (1u << k)) - 1ull;
}

std::uint64_t ToWord(const TruthTable& t) {
  std::uint64_t w = 0;
  for (std::uint64_t m = 0; m < t.num_minterms_space(); ++m) {
    if (t.Get(m)) w |= 1ull << m;
  }
  return w;
}

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
                  [ToWord(cell->function().Remap(perm, k))];
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

// Evaluates a node's function over one of its cuts on 64-bit words. The DFS
// from the root stops at every leaf, so a leaf that also lies inside another
// leaf's cone is a free variable. Scratch state is epoch-stamped and reused.
class CutEvaluator {
 public:
  explicit CutEvaluator(const Network& net)
      : net_(net),
        invert_(net.NumNodes()),
        value_(net.NumNodes()),
        stamp_(net.NumNodes(), 0) {
    for (NodeId id = 0; id < net.NumNodes(); ++id) {
      if (net.kind(id) != NodeKind::kLogic) continue;
      const Sop& fn = net.function(id);
      // A 1-input subject node is an inverter or a buffer (IsAndInvNetwork).
      invert_[id] = fn.num_vars() == 1 && fn.cubes()[0].neg() != 0;
    }
  }

  std::uint64_t Eval(NodeId root, const Cut& cut) {
    ++epoch_;
    for (int i = 0; i < cut.size; ++i) {
      value_[cut.leaf[i]] = kVar[i];
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
      SM_CHECK(net_.kind(n) == NodeKind::kLogic,
               "cut does not cover the cone (reached a free input)");
      const auto& fin = net_.fanins(n);
      bool ready = true;
      for (NodeId f : fin) {
        if (stamp_[f] != epoch_) {
          stack_.push_back(f);
          ready = false;
        }
      }
      if (!ready) continue;
      stack_.pop_back();
      if (fin.size() == 1) {
        value_[n] = invert_[n] ? ~value_[fin[0]] : value_[fin[0]];
      } else {
        value_[n] = value_[fin[0]] & value_[fin[1]];
      }
      stamp_[n] = epoch_;
    }
    return value_[root] & MintermMask(cut.size);
  }

 private:
  const Network& net_;
  std::vector<bool> invert_;
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

  // Leaf-only ids: primary inputs and constant nodes.
  auto leaf_only = [&](NodeId id) {
    return subject.kind(id) == NodeKind::kInput ||
           subject.fanins(id).empty();
  };

  // --- cut enumeration + matching DP, one topological pass -------------
  // Node id owns arena[first[id], first[id + 1]): its trivial cut, then the
  // non-trivial ones. A node keeps at most max_cuts_per_node cuts plus the
  // trivial cut and the re-appended anchor, so the arena never reallocates.
  const std::size_t max_cuts =
      static_cast<std::size_t>(std::max(0, options.max_cuts_per_node));
  std::vector<Cut> arena;
  arena.reserve(n * (max_cuts + 2));
  std::vector<std::size_t> first(n + 1, 0);
  std::vector<Cut> mine;  // scratch: the node's candidate cuts
  mine.reserve((max_cuts + 2) * (max_cuts + 2));
  CutEvaluator evaluator(subject);
  std::vector<Choice> best(n);
  for (NodeId id = 0; id < n; ++id) {
    first[id] = arena.size();
    Cut trivial;  // used by fanouts
    trivial.leaf[0] = id;
    trivial.size = 1;
    arena.push_back(trivial);
    if (leaf_only(id)) continue;

    const auto& fin = subject.fanins(id);
    const Cut* const a = arena.data() + first[fin[0]];
    const Cut* const a_end = arena.data() + first[fin[0] + 1];
    mine.clear();
    if (fin.size() == 1) {
      mine.insert(mine.end(), a, a_end);
    } else {
      const Cut* const b = arena.data() + first[fin[1]];
      const Cut* const b_end = arena.data() + first[fin[1] + 1];
      Cut m;
      for (const Cut* ca = a; ca != a_end; ++ca) {
        for (const Cut* cb = b; cb != b_end; ++cb) {
          if (MergeCuts(*ca, *cb, k, m)) mine.push_back(m);
        }
      }
    }
    // Dedupe and prune: smaller cuts first, cap the list.
    std::sort(mine.begin(), mine.end());
    mine.erase(std::unique(mine.begin(), mine.end()), mine.end());
    if (mine.size() > max_cuts) mine.resize(max_cuts);
    // The direct-fanin cut is the feasibility anchor (it always matches an
    // AND2 or inverter); re-append it if pruning dropped it.
    {
      Cut direct;
      direct.leaf[0] = fin[0];
      direct.size = 1;
      if (fin.size() == 2 && fin[1] != fin[0]) {
        direct.leaf[1] = fin[1];
        direct.size = 2;
        if (fin[1] < fin[0]) std::swap(direct.leaf[0], direct.leaf[1]);
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
          if (leaf_only(leaf)) continue;
          const double refs =
              std::max<std::size_t>(1, fanouts[leaf].size());
          flow += best[leaf].cost / static_cast<double>(refs);
        }
        double arrival = 0;
        for (int pin = 0; pin < m.cell->num_pins(); ++pin) {
          const NodeId leaf = cut.leaf[m.perm[pin]];
          const double leaf_arr = leaf_only(leaf) ? 0.0 : best[leaf].arrival;
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
    // Leaf-only nodes keep arrival 0 / cost 0 implicitly via leaf_only().
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
    if (subject.fanins(id).empty() && subject.kind(id) == NodeKind::kLogic) {
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
