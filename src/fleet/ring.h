/// \file ring.h
/// \brief Consistent-hash ring over CanonicalPredictKey bytes — the
/// fleet router's key-to-replica placement.
///
/// Each replica owns `virtual_nodes` points on a 64-bit ring; a key
/// hashes to a position and routes to the first replica point at or
/// after it (wrapping). Two properties the fleet depends on:
///
///  1. **Stability under duplicates.** The hash is a deterministic
///     byte hash (FNV-1a folded through a SplitMix64 finisher — never
///     std::hash, whose value is implementation-defined), so every
///     process that builds a ring over the same replica list routes a
///     canonical key identically. Duplicate requests therefore land on
///     the same replica, where in-flight coalescing and the solve
///     cache keep deduplicating fleet-wide. The tests pin routing
///     bytes; request_key_golden_test pins the key bytes underneath.
///  2. **Bounded reshuffle.** A replica's death moves only its own
///     ring arcs to their successors (the consistent-hashing
///     guarantee); the other replicas' keys stay put, so their caches
///     stay warm.
///
/// Scheduling metadata (priority/deadline_ms) is excluded from the
/// canonical key (serve/request.h), so QoS never perturbs placement.
///
/// The ring is immutable after construction and safe to share across
/// threads without locking. Liveness is not the ring's business: the
/// router walks PreferenceOrder() and picks the first replica its
/// membership view calls healthy.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mrperf {

/// \brief Deterministic 64-bit byte hash: FNV-1a folded through a
/// SplitMix64 finisher for avalanche. Identical on every platform and
/// run — the property std::hash does not give.
uint64_t FleetKeyHash(const std::string& bytes);

/// \brief Immutable consistent-hash ring (see file comment).
class HashRing {
 public:
  /// Default virtual nodes per replica: enough points that a 3-replica
  /// fleet's arcs are within a few percent of even.
  static constexpr int kDefaultVirtualNodes = 64;

  /// Builds the ring for replica indices [0, replica_count). The
  /// replica order is part of the contract: every router and test
  /// harness that builds a ring over the same ordered --replicas list
  /// gets identical placement.
  explicit HashRing(size_t replica_count,
                    int virtual_nodes = kDefaultVirtualNodes);

  size_t replica_count() const { return replica_count_; }

  /// The key's primary replica: first ring point at or after the key's
  /// hash position.
  size_t Route(const std::string& canonical_key) const;

  /// Failover order: the primary, then each further distinct replica
  /// in ring-successor order. Every replica appears exactly once, so
  /// walking this order visits the whole fleet.
  std::vector<size_t> PreferenceOrder(const std::string& canonical_key) const;

 private:
  struct Point {
    uint64_t position;
    uint32_t replica;
  };

  /// Index into points_ of the key's primary ring point.
  size_t RouteIndex(const std::string& canonical_key) const;

  size_t replica_count_;
  /// Sorted by position (ties broken by replica index, deterministic).
  std::vector<Point> points_;
};

}  // namespace mrperf
