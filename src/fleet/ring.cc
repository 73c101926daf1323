#include "fleet/ring.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

#include "util/hash.h"
#include "util/strings.h"

namespace sm {

int ParseVnodeCount(const std::string& value) {
  return ParseBoundedInt("--vnodes", value, 1, kMaxVnodesPerShard);
}

HashRing::HashRing(std::vector<std::string> shard_ids, int vnodes_per_shard)
    : shard_ids_(std::move(shard_ids)) {
  if (shard_ids_.empty()) {
    throw std::invalid_argument("hash ring needs at least one shard");
  }
  if (vnodes_per_shard < 1 || vnodes_per_shard > kMaxVnodesPerShard) {
    throw std::invalid_argument("vnodes_per_shard must be in [1, " +
                                std::to_string(kMaxVnodesPerShard) + "]");
  }
  std::unordered_set<std::string> seen;
  for (const std::string& id : shard_ids_) {
    if (!seen.insert(id).second) {
      throw std::invalid_argument("duplicate shard id \"" + id + "\"");
    }
  }
  vnodes_.reserve(shard_ids_.size() * static_cast<std::size_t>(vnodes_per_shard));
  for (int s = 0; s < num_shards(); ++s) {
    for (int r = 0; r < vnodes_per_shard; ++r) {
      Hasher h;
      h.AddBytes(shard_ids_[static_cast<std::size_t>(s)]);
      h.Add(static_cast<std::uint64_t>(r));
      vnodes_.push_back({h.Digest(), s});
    }
  }
  std::sort(vnodes_.begin(), vnodes_.end(), [](const VNode& a, const VNode& b) {
    // Tie-break on shard index so placement stays total even in the
    // astronomically unlikely event of a point collision.
    return a.point != b.point ? a.point < b.point : a.shard < b.shard;
  });
}

int HashRing::Pick(std::uint64_t key) const {
  auto it = std::lower_bound(
      vnodes_.begin(), vnodes_.end(), key,
      [](const VNode& v, std::uint64_t k) { return v.point < k; });
  if (it == vnodes_.end()) it = vnodes_.begin();  // wrap around
  return it->shard;
}

int HashRing::PickExcluding(std::uint64_t key,
                            const std::vector<bool>& excluded) const {
  if (excluded.size() != shard_ids_.size()) {
    throw std::invalid_argument("excluded mask size != shard count");
  }
  if (std::find(excluded.begin(), excluded.end(), false) == excluded.end()) {
    throw std::invalid_argument("every shard excluded");
  }
  auto start = std::lower_bound(
      vnodes_.begin(), vnodes_.end(), key,
      [](const VNode& v, std::uint64_t k) { return v.point < k; });
  const std::size_t n = vnodes_.size();
  std::size_t i = static_cast<std::size_t>(start - vnodes_.begin());
  for (std::size_t walked = 0; walked < n; ++walked) {
    const VNode& v = vnodes_[(i + walked) % n];
    if (!excluded[static_cast<std::size_t>(v.shard)]) return v.shard;
  }
  throw std::invalid_argument("every shard excluded");  // unreachable
}

}  // namespace sm
