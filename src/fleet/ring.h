// Consistent-hash ring over named analysis shards.
//
// The fleet router places every request on a shard by its circuit's
// structural hash (service/protocol.h RequestCacheKey's network component),
// so repeated analyses of the same circuit land on the same shard and hit
// that shard's warm BddManagers and result cache. A plain `hash % N`
// placement would reshuffle nearly every key when N changes; the ring only
// moves the keys that fall into the departing/arriving shard's arcs.
//
// Construction: each shard contributes `vnodes_per_shard` virtual nodes,
// placed at Hasher(shard_id bytes, replica index) points on the 64-bit
// ring. A key maps to the shard owning the first vnode clockwise from the
// key's point. Everything is a pure function of (shard ids, vnode count) —
// two routers configured alike route alike, with no coordination.
//
// PickExcluding skips excluded shards' vnodes during the clockwise walk.
// Because vnode positions depend only on each shard's own id, this is
// exactly the placement of a ring built without the excluded shards — so
// failover rerouting is deterministic, and a shard rejoining restores the
// original placement (the monotone/minimal-remapping property the tests
// assert).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace sm {

// Virtual nodes per shard: at least 1, at most this many.
inline constexpr int kMaxVnodesPerShard = 4096;

// Parses a `--vnodes` value: an integer in [1, kMaxVnodesPerShard]; throws
// std::invalid_argument otherwise.
int ParseVnodeCount(const std::string& value);

class HashRing {
 public:
  // Throws std::invalid_argument when `shard_ids` is empty, contains a
  // duplicate, or `vnodes_per_shard` is outside [1, kMaxVnodesPerShard].
  HashRing(std::vector<std::string> shard_ids, int vnodes_per_shard = 64);

  int num_shards() const { return static_cast<int>(shard_ids_.size()); }
  const std::vector<std::string>& shard_ids() const { return shard_ids_; }

  // Index (into shard_ids()) of the shard owning `key`.
  int Pick(std::uint64_t key) const;

  // Like Pick but skips shards with excluded[i] set. `excluded` must have
  // one entry per shard and leave at least one shard alive (throws
  // std::invalid_argument otherwise). Equivalent to Pick on a ring built
  // without the excluded shards.
  int PickExcluding(std::uint64_t key,
                    const std::vector<bool>& excluded) const;

 private:
  struct VNode {
    std::uint64_t point;
    int shard;
  };

  std::vector<std::string> shard_ids_;
  std::vector<VNode> vnodes_;  // sorted by point
};

}  // namespace sm
