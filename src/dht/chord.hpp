// Model-agnostic Chord core: the consistent-hash ring, finger tables,
// successor lists / replica sets, the deterministic churn schedule, and the
// churn-repair planner.
//
// This is the "service logic" shared verbatim by the three model bindings
// (dht_mp / dht_shmem / dht_sas) so that routing decisions — and therefore
// per-request hop counts — are *identical* across programming models; only
// the way a request record moves between processors differs.  Everything
// here is a pure function of (membership, key): no clocks, no randomness
// beyond the run seed, so a run is bit-reproducible from its configuration.
//
// The overlay follows Chord (Stoica et al.): every logical node n hashes to
// a point on a 2^64 ring; the key k is owned by successor(hash(k)); node n
// keeps fingers f_i = successor(point(n) + 2^i) and routes greedily through
// its closest preceding finger, giving O(log N) hops.  Replicas of a key
// live on the owner's k-1 distinct successors, as in Chord/DHash.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace o2k::dht {

/// Index of a logical overlay node (several per PE; pinned to its PE).
using NodeId = std::uint16_t;

/// SplitMix64 finalizer as a stateless hash (same mix as common/rng.hpp).
constexpr std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Ring point of a logical node / of a key.  Distinct salts keep the two
/// populations independent.
constexpr std::uint64_t node_point(NodeId n) { return mix64(0x6f2b'9d15'0000'0000ULL + n); }
constexpr std::uint64_t key_point(std::uint32_t key) {
  return mix64(0x51ab'39c4'0000'0000ULL + key);
}

/// The PE hosting a logical node: a static assignment that survives churn
/// (a dead node's PE keeps serving its other nodes).
constexpr int pe_of(NodeId n, int nprocs) { return static_cast<int>(n) % nprocs; }

/// Half-open arc (lo, hi] of ring points, wrapping past 2^64, or the whole
/// ring when `all` is set.
struct Arc {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  bool all = false;

  [[nodiscard]] constexpr bool contains(std::uint64_t p) const {
    return all || p - lo - 1 < hi - lo;  // unsigned wrap does the modular compare
  }
};

/// The alive membership, sorted into ring order.  Rebuilt (identically on
/// every PE) whenever membership changes; queries are pure.
class Ring {
 public:
  static Ring build(const std::vector<std::uint8_t>& alive);

  [[nodiscard]] int n_alive() const { return static_cast<int>(order_.size()); }
  [[nodiscard]] int n_total() const { return n_total_; }
  [[nodiscard]] bool is_alive(NodeId n) const { return alive_[n] != 0; }

  /// First alive node at or after `point` on the ring (wrapping).
  [[nodiscard]] NodeId successor(std::uint64_t point) const;
  /// Owner of a key: successor of the key's ring point.
  [[nodiscard]] NodeId owner(std::uint32_t key) const { return successor(key_point(key)); }
  /// Replica set of a key: owner plus its k-1 distinct ring successors
  /// (fewer when fewer nodes are alive).  Deterministic order: ring order
  /// starting at the owner.
  void replicas(std::uint32_t key, int k, std::vector<NodeId>& out) const;
  /// Key points whose replica set contains the alive node `n`: the arc
  /// (pred_k(n), n] from n's k-th ring predecessor up to n itself, or the
  /// whole ring when at most k nodes are alive.
  [[nodiscard]] Arc replica_arc(NodeId n, int k) const;
  /// Uniform pick over the alive membership from a raw 64-bit draw — used
  /// to attach a client request to an entry node.
  [[nodiscard]] NodeId pick_alive(std::uint64_t raw) const {
    return order_[static_cast<std::size_t>(raw % order_.size())].second;
  }

 private:
  friend struct Fingers;
  std::vector<std::uint8_t> alive_;
  std::vector<std::pair<std::uint64_t, NodeId>> order_;  ///< sorted (point, node)
  int n_total_ = 0;
};

/// One node's routing state: 64 fingers, finger[i] = successor(point + 2^i).
struct Fingers {
  NodeId node = 0;
  std::uint64_t point = 0;
  std::array<NodeId, 64> finger{};

  static Fingers build(const Ring& ring, NodeId n);
};

/// One greedy routing step at `fg.node` toward the owner of `key`.
/// Returns the next node and the number of finger entries examined (the
/// charged scan length).  next == fg.node means this node owns the key.
std::pair<NodeId, int> next_hop(const Ring& ring, const Fingers& fg, std::uint32_t key);

// ---- churn -----------------------------------------------------------------

struct ChurnEvent {
  bool fail = false;  ///< true: `node` fails (state lost); false: it (re)joins
  NodeId node = 0;
};

/// Deterministic membership event `e` for the given membership: fails an
/// alive node or rejoins a dead one, never dropping the alive count below
/// `min_alive`.  Returns nullopt when no legal move exists.
std::optional<ChurnEvent> churn_event(const std::vector<std::uint8_t>& alive, int min_alive,
                                      std::uint64_t seed, int e);

/// One key copy required to restore full replication after a membership
/// change: `dst` must fetch `key` from `src` (a surviving replica).
struct RepairXfer {
  std::uint32_t key = 0;
  NodeId src = 0;
  NodeId dst = 0;
};

/// Plan the repair traffic for a membership change: for every key, members
/// of the new replica set that do not already hold the key fetch it from
/// the first surviving old replica (ring order).  Assumes at most
/// `k - 1` members of any old replica set died since the last repair —
/// guaranteed by the one-event-at-a-time churn schedule.  Only keys in the
/// replica arcs of changed nodes (a failed node's in `before`, a joined
/// node's in `after`) are planned; every other key keeps an identical,
/// fully alive replica set and needs no copy.
std::vector<RepairXfer> plan_repair(const Ring& before, const Ring& after, std::uint32_t keys,
                                    int k);

}  // namespace o2k::dht
