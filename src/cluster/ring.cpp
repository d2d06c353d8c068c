#include "cluster/ring.h"

#include <algorithm>
#include <cassert>
#include <set>

#include "util/env.h"
#include "util/hash.h"

namespace dance::cluster {

namespace {

/// splitmix64 finalizer: a cheap, well-mixed bijection. FNV-1a alone is a
/// weak mixer for short inputs like (shard, vnode) pairs; finalizing spreads
/// the points evenly around the ring.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t HashRing::point_hash(int shard_id, int vnode) {
  // FNV-1a over the two ints as 8 little-endian bytes each, then finalize.
  // Byte-order independent: feed the values, not their memory.
  unsigned char bytes[16];
  const auto put = [&bytes](int at, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      bytes[at + i] = static_cast<unsigned char>((v >> (i * 8)) & 0xff);
    }
  };
  put(0, static_cast<std::uint32_t>(shard_id));
  put(8, static_cast<std::uint32_t>(vnode));
  return mix64(util::fnv1a(bytes, sizeof(bytes), util::kFnv1aStoredBasis));
}

HashRing::HashRing(const std::vector<int>& shard_ids, int vnodes) {
  const int per_shard = std::max(1, vnodes);
  const std::set<int> unique(shard_ids.begin(), shard_ids.end());
  num_shards_ = static_cast<int>(unique.size());
  points_.reserve(unique.size() * static_cast<std::size_t>(per_shard));
  for (int id : unique) {
    for (int v = 0; v < per_shard; ++v) {
      points_.push_back(Point{point_hash(id, v), id});
    }
  }
  std::sort(points_.begin(), points_.end(),
            [](const Point& a, const Point& b) {
              // Tie-break on shard id so equal hashes (vanishingly rare but
              // possible) still give every ring the same winner.
              return a.hash != b.hash ? a.hash < b.hash : a.shard < b.shard;
            });
}

int HashRing::vnodes_from_env() {
  return util::env_int("DANCE_CLUSTER_VNODES", 64, 1);
}

int HashRing::lookup(std::uint64_t hash64) const {
  assert(!points_.empty() && "lookup on an empty ring");
  // First point strictly after the key, wrapping to the start.
  const auto it = std::upper_bound(
      points_.begin(), points_.end(), hash64,
      [](std::uint64_t h, const Point& p) { return h < p.hash; });
  return it == points_.end() ? points_.front().shard : it->shard;
}

int HashRing::lookup_key(const std::vector<float>& canonical_key) const {
  return lookup(serve::KeyHash{}(canonical_key));
}

}  // namespace dance::cluster
