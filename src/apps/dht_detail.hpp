// Model-neutral bookkeeping shared by the DHT bindings: the wire record,
// the per-PE set of hosted overlay nodes with their private stores (MP and
// SHMEM; the CC-SAS store is a shared array instead), and the store checks.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "apps/dht_app.hpp"
#include "common/check.hpp"
#include "dht/chord.hpp"
#include "dht/traffic.hpp"

namespace o2k::apps::detail {

/// One in-flight message of the overlay: a routed client request, a replica
/// write fanned out by a put, or a churn-repair copy.
enum : std::uint8_t { kDhtGet = 0, kDhtPut = 1, kDhtRepl = 2, kDhtRepair = 3 };

struct DhtRec {
  std::uint64_t val = 0;  ///< put delta (kDhtPut/kDhtRepl) or full value (kDhtRepair)
  std::uint32_t key = 0;
  std::uint16_t node = 0;  ///< overlay node this record is addressed to
  std::uint8_t kind = 0;
  std::uint8_t hops = 0;   ///< routing steps taken so far
};
static_assert(sizeof(DhtRec) == 16);

/// Total overlay nodes of a run.
inline int dht_nodes(const DhtConfig& cfg, int nprocs) { return cfg.nodes_per_pe * nprocs; }

/// Churn floor: never fail below this many alive nodes, so every key keeps
/// at least one surviving replica between repairs.
inline int dht_min_alive(int nodes, int replicas) {
  return std::max(replicas + 2, 3 * nodes / 4);
}

/// Calls fn(key, node) for every replica of every key in [0, keys) hosted
/// by PE `me` (nodes me, me + nprocs, ...), in ascending key order and ring
/// order within a key: the sequence a filter over every key's full replica
/// set yields.  A key outside the replica arcs of the PE's alive nodes
/// costs one hash, so a PE's host work follows what it owns.
template <typename Fn>
void for_each_local_replica(const dht::Ring& ring, int k, std::uint32_t keys, int me,
                            int nprocs, Fn&& fn) {
  std::vector<dht::Arc> arcs;
  for (int n = me; n < ring.n_total(); n += nprocs) {
    if (ring.is_alive(static_cast<dht::NodeId>(n)))
      arcs.push_back(ring.replica_arc(static_cast<dht::NodeId>(n), k));
  }
  std::vector<dht::NodeId> reps;
  for (std::uint32_t key = 0; key < keys; ++key) {
    const std::uint64_t p = dht::key_point(key);
    if (std::none_of(arcs.begin(), arcs.end(), [p](const dht::Arc& a) { return a.contains(p); }))
      continue;
    ring.replicas(key, k, reps);
    for (const dht::NodeId d : reps) {
      if (dht::pe_of(d, nprocs) == me) fn(key, d);
    }
  }
}

/// The overlay nodes one PE hosts, with private per-node stores (value +
/// presence per key) and routing state.  Used by the MP and SHMEM bindings.
struct DhtNodeSet {
  int me = 0;
  int nprocs = 1;
  std::vector<dht::NodeId> ids;       ///< my nodes, ascending
  std::vector<int> lidx;              ///< node -> index in `ids`, or -1
  std::vector<dht::Fingers> fg;       ///< per local node
  std::vector<std::vector<std::uint64_t>> val;
  std::vector<std::vector<std::uint8_t>> present;

  void init(int rank, int npes, int nodes, std::uint32_t keys) {
    me = rank;
    nprocs = npes;
    lidx.assign(static_cast<std::size_t>(nodes), -1);
    for (int n = me; n < nodes; n += nprocs) {
      lidx[static_cast<std::size_t>(n)] = static_cast<int>(ids.size());
      ids.push_back(static_cast<dht::NodeId>(n));
    }
    fg.resize(ids.size());
    val.assign(ids.size(), std::vector<std::uint64_t>(keys, 0));
    present.assign(ids.size(), std::vector<std::uint8_t>(keys, 0));
  }

  [[nodiscard]] bool is_local(dht::NodeId n) const {
    return lidx[static_cast<std::size_t>(n)] >= 0;
  }
  [[nodiscard]] const dht::Fingers& fingers_of(dht::NodeId n) const {
    return fg[static_cast<std::size_t>(lidx[static_cast<std::size_t>(n)])];
  }
  [[nodiscard]] std::size_t li(dht::NodeId n) const {
    const int i = lidx[static_cast<std::size_t>(n)];
    O2K_CHECK(i >= 0, "dht: record addressed to a non-local node");
    return static_cast<std::size_t>(i);
  }

  void rebuild_fingers(const dht::Ring& ring) {
    for (std::size_t i = 0; i < ids.size(); ++i) fg[i] = dht::Fingers::build(ring, ids[i]);
  }

  void add(dht::NodeId n, std::uint32_t key, std::uint64_t delta) {
    const std::size_t i = li(n);
    val[i][key] += delta;
    present[i][key] = 1;
  }
  void set(dht::NodeId n, std::uint32_t key, std::uint64_t v) {
    const std::size_t i = li(n);
    val[i][key] = v;
    present[i][key] = 1;
  }
  [[nodiscard]] bool has(dht::NodeId n, std::uint32_t key) const {
    const int i = lidx[static_cast<std::size_t>(n)];
    return i >= 0 && present[static_cast<std::size_t>(i)][key] != 0;
  }
  [[nodiscard]] std::uint64_t value_of(dht::NodeId n, std::uint32_t key) const {
    return val[li(n)][key];
  }
  void clear_node(dht::NodeId n) {
    const std::size_t i = li(n);
    std::fill(present[i].begin(), present[i].end(), std::uint8_t{0});
  }

  /// Seed every local replica of every key with its initial value; returns
  /// the number of entries written (for work charging).
  std::uint64_t populate(const dht::Ring& ring, const dht::Traffic& traffic, int k) {
    std::uint64_t stored = 0;
    for_each_local_replica(ring, k, traffic.keys(), me, nprocs,
                           [&](std::uint32_t key, dht::NodeId d) {
                             set(d, key, traffic.initial_value(key));
                             ++stored;
                           });
    return stored;
  }

  /// Validate my share of the final replica sets against the serial
  /// reference.  Returns {entries with a wrong/missing value, entries
  /// present} over the keys' current replica sets.
  [[nodiscard]] std::pair<std::int64_t, std::int64_t> check_store(
      const dht::Ring& ring, int k, const std::vector<std::uint64_t>& expected) const {
    std::int64_t wrong = 0, found = 0;
    for_each_local_replica(ring, k, static_cast<std::uint32_t>(expected.size()), me, nprocs,
                           [&](std::uint32_t key, dht::NodeId d) {
                             if (!has(d, key)) {
                               ++wrong;
                             } else {
                               ++found;
                               if (value_of(d, key) != expected[key]) ++wrong;
                             }
                           });
    return {wrong, found};
  }
};

}  // namespace o2k::apps::detail
