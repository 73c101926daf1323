#include "map/cut_enum.h"

#include <limits>

#include "util/check.h"

namespace sm::map_detail {
namespace {

constexpr std::uint32_t kNoSlot = std::numeric_limits<std::uint32_t>::max();

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
  out.size = static_cast<std::uint8_t>(n);
  return true;
}

// Inserts `c` into `cuts`, which stays sorted, duplicate-free and at most
// `cap` long: after all candidates it holds the first `cap` distinct cuts in
// Cut order, the set and order that sorting every candidate, dropping
// duplicates and truncating would give. Of equal candidates the first stays.
void InsertBounded(std::vector<Cut>& cuts, const Cut& c, std::size_t cap) {
  if (cuts.size() == cap && (cap == 0 || !(c < cuts.back()))) return;
  const auto pos = std::lower_bound(cuts.begin(), cuts.end(), c);
  if (pos != cuts.end() && *pos == c) return;
  const std::ptrdiff_t at = pos - cuts.begin();
  if (cuts.size() == cap) cuts.pop_back();
  cuts.insert(cuts.begin() + at, c);
}

// Swaps variables i < j of a word.
std::uint64_t SwapVars(std::uint64_t w, int i, int j) {
  const int shift = (1 << j) - (1 << i);
  const std::uint64_t m = kVarWord[i] & ~kVarWord[j];  // x_i = 1, x_j = 0
  return (w & ~(m | (m << shift))) | ((w & m) << shift) | ((w >> shift) & m);
}

// Re-expresses `c`'s function over the leaves of `m` (a superset of c's)
// and returns the Bloom mask of m's leaves that are not c's in `outside`.
// Variables move from the highest down, each to a position its function
// does not depend on.
std::uint64_t Expand(const Cut& c, std::uint64_t word, const Cut& m,
                     std::uint64_t& outside) {
  std::array<int, kMaxLeaves> pos{};
  int i = 0;
  outside = 0;
  for (int p = 0; p < m.size; ++p) {
    if (i < c.size && c.leaf[i] == m.leaf[p]) {
      pos[i++] = p;
    } else {
      outside |= InteriorBit(m.leaf[p]);
    }
  }
  for (int v = c.size - 1; v >= 0; --v) {
    if (pos[v] != v) word = SwapVars(word, v, pos[v]);
  }
  return word;
}

}  // namespace

FlatSubject::FlatSubject(const Network& net)
    : op(net.NumNodes(), Op::kLeaf),
      fanin0(net.NumNodes(), kInvalidNode),
      fanin1(net.NumNodes(), kInvalidNode),
      fanouts(net.NumNodes(), 0) {
  for (NodeId id = 0; id < net.NumNodes(); ++id) {
    if (net.kind(id) != NodeKind::kLogic) continue;
    const auto& fin = net.fanins(id);
    if (fin.empty()) continue;
    fanin0[id] = fin[0];
    ++fanouts[fin[0]];
    if (fin.size() == 2) {
      fanin1[id] = fin[1];
      ++fanouts[fin[1]];
      op[id] = Op::kAnd;
    } else {
      // A 1-input subject node is an inverter or a buffer (IsAndInvNetwork).
      op[id] = net.function(id).cubes()[0].neg() != 0 ? Op::kInv : Op::kBuf;
    }
  }
}

CutFunction CutEvaluator::Eval(NodeId root, const Cut& cut) {
  ++epoch_;
  for (int i = 0; i < cut.size; ++i) {
    value_[cut.leaf[i]] = kVarWord[i];
    stamp_[cut.leaf[i]] = epoch_;
  }
  std::uint64_t interior = 0;
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
    interior |= InteriorBit(n);
  }
  return {value_[root], interior};
}

CutEnumerator::CutEnumerator(const FlatSubject& g, int max_leaves,
                             int max_cuts_per_node)
    : g_(g),
      k_(max_leaves),
      max_cuts_(static_cast<std::size_t>(std::max(0, max_cuts_per_node))),
      slot_cap_(max_cuts_ + 2),
      dfs_(g),
      slot_of_(g.op.size(), kNoSlot),
      unread_(g.fanouts) {
  SM_REQUIRE(max_cuts_ <= 253,
             "max_cuts_per_node above 253 does not fit a cut's source bytes");
  kept_.reserve(max_cuts_ + 1);
  fns_.reserve(max_cuts_ + 1);
}

const Cut* CutEnumerator::SetCuts(NodeId id) const {
  return pool_cuts_.data() + slot_of_[id] * slot_cap_;
}

const CutFunction* CutEnumerator::SetFunctions(NodeId id) const {
  return pool_fns_.data() + slot_of_[id] * slot_cap_;
}

void CutEnumerator::Enumerate(NodeId id) {
  kept_.clear();
  fns_.clear();
  const Op op = g_.op[id];
  if (op != Op::kLeaf) {
    const bool is_and = op == Op::kAnd;
    const NodeId f0 = g_.fanin0[id];
    const NodeId f1 = g_.fanin1[id];
    const Cut* const a = SetCuts(f0);
    const CutFunction* const fa = SetFunctions(f0);
    const std::size_t a_size = slot_size_[slot_of_[f0]];
    const Cut* const b = is_and ? SetCuts(f1) : nullptr;
    const CutFunction* const fb = is_and ? SetFunctions(f1) : nullptr;
    // Keep the smallest distinct cuts, capped, in Cut order.
    if (!is_and) {
      for (std::size_t i = 0; i < a_size; ++i) {
        Cut c = a[i];
        c.src_a = static_cast<std::uint8_t>(i);
        InsertBounded(kept_, c, max_cuts_);
      }
    } else {
      const std::size_t b_size = slot_size_[slot_of_[f1]];
      Cut m;
      for (std::size_t i = 0; i < a_size; ++i) {
        for (std::size_t j = 0; j < b_size; ++j) {
          if (!MergeCuts(a[i], b[j], k_, m)) continue;
          m.src_a = static_cast<std::uint8_t>(i);
          m.src_b = static_cast<std::uint8_t>(j);
          InsertBounded(kept_, m, max_cuts_);
        }
      }
    }
    // The direct-fanin cut is the feasibility anchor (it always matches an
    // AND2 or inverter); re-append it if pruning dropped it. It is built
    // from the trivial cuts.
    Cut direct;
    direct.leaf[0] = f0;
    direct.size = 1;
    if (is_and && f1 != f0) {
      direct.leaf[0] = std::min(f0, f1);
      direct.leaf[1] = std::max(f0, f1);
      direct.size = 2;
    }
    if (std::find(kept_.begin(), kept_.end(), direct) == kept_.end()) {
      kept_.push_back(direct);
    }

    // Each kept cut's function, composed from its fanin cuts' functions.
    const std::uint64_t root_bit = InteriorBit(id);
    for (const Cut& c : kept_) {
      const CutFunction& ca = fa[c.src_a];
      if (!is_and) {
        fns_.push_back({op == Op::kInv ? ~ca.word : ca.word,
                        root_bit | ca.interior});
        ++stats_.cuts_composed;
        continue;
      }
      // Merging can add a leaf that lies inside the other fanin cut's DFS
      // interior (the fanin itself included). The DFS stops there and
      // reads it as a free variable, where the composition would see the
      // fanin cut's function of it, so such a cut is evaluated by the DFS.
      const CutFunction& cb = fb[c.src_b];
      std::uint64_t outside_a;
      std::uint64_t outside_b;
      const std::uint64_t wa = Expand(a[c.src_a], ca.word, c, outside_a);
      const std::uint64_t wb = Expand(b[c.src_b], cb.word, c, outside_b);
      if ((outside_a & ca.interior) != 0 || (outside_b & cb.interior) != 0) {
        fns_.push_back(dfs_.Eval(id, c));
        ++stats_.dfs_fallbacks;
        continue;
      }
      fns_.push_back({wa & wb, root_bit | ca.interior | cb.interior});
      ++stats_.cuts_composed;
    }
    stats_.cuts_kept += kept_.size();

    Release(f0);
    if (is_and) Release(f1);
  }
  if (g_.fanouts[id] != 0) Publish(id);
}

void CutEnumerator::Release(NodeId id) {
  if (--unread_[id] != 0) return;
  free_slots_.push_back(slot_of_[id]);
  slot_of_[id] = kNoSlot;
  --live_;
}

void CutEnumerator::Publish(NodeId id) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slot_size_.size());
    slot_size_.push_back(0);
    pool_cuts_.resize(pool_cuts_.size() + slot_cap_);
    pool_fns_.resize(pool_fns_.size() + slot_cap_);
  }
  slot_of_[id] = slot;
  stats_.peak_live_cut_sets = std::max(stats_.peak_live_cut_sets, ++live_);

  Cut* const cuts = pool_cuts_.data() + slot * slot_cap_;
  CutFunction* const fns = pool_fns_.data() + slot * slot_cap_;
  cuts[0] = Cut{};
  cuts[0].leaf[0] = id;
  cuts[0].size = 1;
  fns[0] = {kVarWord[0], 0};
  std::copy(kept_.begin(), kept_.end(), cuts + 1);
  std::copy(fns_.begin(), fns_.end(), fns + 1);
  slot_size_[slot] = static_cast<std::uint8_t>(kept_.size() + 1);
}

}  // namespace sm::map_detail
