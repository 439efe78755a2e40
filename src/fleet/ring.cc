#include "fleet/ring.h"

#include <algorithm>

namespace mrperf {
namespace {

/// SplitMix64 finisher: the same avalanche mix the solve cache uses to
/// spread keys across lock shards (queueing/solve_cache.cc), applied
/// here to spread ring points and key positions.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

uint64_t FleetKeyHash(const std::string& bytes) {
  // FNV-1a 64: simple, fast, and — unlike std::hash — pinned to these
  // exact constants on every platform, so fleet placement is stable.
  uint64_t h = 1469598103934665603ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return Mix64(h);
}

HashRing::HashRing(size_t replica_count, int virtual_nodes)
    : replica_count_(replica_count) {
  const int vnodes = std::max(1, virtual_nodes);
  points_.reserve(replica_count * static_cast<size_t>(vnodes));
  for (size_t r = 0; r < replica_count; ++r) {
    for (int v = 0; v < vnodes; ++v) {
      // Each replica's points are a SplitMix64 stream keyed by
      // (replica, vnode) — deterministic, well spread, and independent
      // of any address strings.
      const uint64_t position =
          Mix64(static_cast<uint64_t>(r) * 0x100000001b3ULL +
                static_cast<uint64_t>(v) + 1);
      points_.push_back(
          Point{position, static_cast<uint32_t>(r)});
    }
  }
  std::sort(points_.begin(), points_.end(),
            [](const Point& a, const Point& b) {
              if (a.position != b.position) return a.position < b.position;
              return a.replica < b.replica;
            });
}

size_t HashRing::RouteIndex(const std::string& canonical_key) const {
  const uint64_t h = FleetKeyHash(canonical_key);
  const auto it = std::lower_bound(
      points_.begin(), points_.end(), h,
      [](const Point& p, uint64_t value) { return p.position < value; });
  // Wrap: a key past the last point belongs to the first (ring).
  if (it == points_.end()) return 0;
  return static_cast<size_t>(it - points_.begin());
}

size_t HashRing::Route(const std::string& canonical_key) const {
  if (points_.empty()) return 0;
  return points_[RouteIndex(canonical_key)].replica;
}

std::vector<size_t> HashRing::PreferenceOrder(
    const std::string& canonical_key) const {
  std::vector<size_t> order;
  if (points_.empty()) return order;
  order.reserve(replica_count_);
  std::vector<bool> seen(replica_count_, false);
  const size_t start = RouteIndex(canonical_key);
  for (size_t i = 0; i < points_.size() && order.size() < replica_count_;
       ++i) {
    const Point& p = points_[(start + i) % points_.size()];
    if (seen[p.replica]) continue;
    seen[p.replica] = true;
    order.push_back(p.replica);
  }
  return order;
}

}  // namespace mrperf
