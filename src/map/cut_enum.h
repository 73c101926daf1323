// Cut enumeration for TechMap (internal to src/map; tests include it to
// check the composed cut functions against the leaf-stopping DFS).
//
// Nodes are enumerated once each, in increasing (topological) id order. A
// node's cut set is its trivial cut followed by at most max_cuts_per_node
// merged cuts, plus the direct-fanin anchor; see tech_map.h and
// docs/ALGORITHMS.md §3 for the selection rule, the composition and its
// safety rule, and the slot pool.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "boolean/truth_table.h"
#include "map/tech_map.h"
#include "network/network.h"

namespace sm::map_detail {

inline constexpr int kMaxLeaves = kWordVars;  // a cut function fits one word

// Sorted leaf ids stored inline, and the fanin cuts the cut was built from:
// positions in the fanin cut sets (0 is the trivial cut). A unary node's cut
// is its fanin's cut src_a; an AND node's cut merges fanin 0's cut src_a
// with fanin 1's cut src_b. Equality and order read the leaves only.
struct Cut {
  std::array<NodeId, kMaxLeaves> leaf{};
  std::uint8_t size = 0;
  std::uint8_t src_a = 0;
  std::uint8_t src_b = 0;

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
static_assert(sizeof(Cut) == 28, "a cut is its leaves plus four bytes");

// A cut's function and interior. `word` is the root's function in the
// kVarWord layout with leaf i as variable i; it does not depend on
// variables size..5 and is not masked. `interior` is a Bloom mask
// (InteriorBit) of the non-leaf nodes that the leaf-stopping DFS from the
// root visits, the root included; a trivial cut has none.
struct CutFunction {
  std::uint64_t word = 0;
  std::uint64_t interior = 0;
  bool operator==(const CutFunction&) const = default;
};

inline std::uint64_t InteriorBit(NodeId n) {
  return 1ull << (n & 63u);
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
  // Fanin edges that read the node (an AND of x with x reads x twice);
  // primary outputs do not count.
  std::vector<std::uint32_t> fanouts;

  explicit FlatSubject(const Network& net);
};

// The reference semantics of a cut function: a DFS from the root that stops
// at every leaf, so a leaf that also lies inside another leaf's cone is a
// free variable. Scratch state is epoch-stamped and reused.
class CutEvaluator {
 public:
  explicit CutEvaluator(const FlatSubject& g)
      : g_(g), value_(g.op.size()), stamp_(g.op.size(), 0) {}

  CutFunction Eval(NodeId root, const Cut& cut);

 private:
  const FlatSubject& g_;
  std::vector<std::uint64_t> value_;
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 0;
  std::vector<NodeId> stack_;
};

// Enumerates cuts and their functions in live-set memory. A node with
// fanouts publishes its cut set (trivial cut first) to a fixed slot of
// max_cuts_per_node + 2 cuts from a free-list pool; the slot returns to the
// pool once the node's last fanout edge has read it. A node without fanouts
// never takes one.
class CutEnumerator {
 public:
  // max_cuts_per_node must be at most 253, so that positions in a cut set
  // fit a Cut's source bytes.
  CutEnumerator(const FlatSubject& g, int max_leaves, int max_cuts_per_node);

  // Enumerates node `id`, the next node in id order: afterwards cuts() and
  // functions() hold its kept non-trivial cuts (none for a kLeaf node), in
  // cut order with the anchor last, valid until the next call.
  void Enumerate(NodeId id);

  std::span<const Cut> cuts() const { return kept_; }
  std::span<const CutFunction> functions() const { return fns_; }
  const TechMapStats& stats() const { return stats_; }

 private:
  const Cut* SetCuts(NodeId id) const;
  const CutFunction* SetFunctions(NodeId id) const;
  void Release(NodeId id);
  void Publish(NodeId id);

  const FlatSubject& g_;
  int k_;
  std::size_t max_cuts_;
  std::size_t slot_cap_;
  CutEvaluator dfs_;
  std::vector<Cut> kept_;
  std::vector<CutFunction> fns_;
  // Slot pool: slot s holds slot_size_[s] cuts at [s * slot_cap_, ...).
  std::vector<Cut> pool_cuts_;
  std::vector<CutFunction> pool_fns_;
  std::vector<std::uint8_t> slot_size_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::uint32_t> slot_of_;  // per node
  std::vector<std::uint32_t> unread_;   // per node: fanout edges still to read
  std::size_t live_ = 0;
  TechMapStats stats_;
};

}  // namespace sm::map_detail
