#include "dht/chord.hpp"

#include <algorithm>

namespace o2k::dht {

Ring Ring::build(const std::vector<std::uint8_t>& alive) {
  Ring r;
  r.alive_ = alive;
  r.n_total_ = static_cast<int>(alive.size());
  O2K_REQUIRE(r.n_total_ > 0 && r.n_total_ <= 65536, "dht: node count out of range");
  r.order_.reserve(alive.size());
  for (std::size_t n = 0; n < alive.size(); ++n) {
    if (alive[n]) r.order_.emplace_back(node_point(static_cast<NodeId>(n)), static_cast<NodeId>(n));
  }
  O2K_REQUIRE(!r.order_.empty(), "dht: ring has no alive node");
  std::sort(r.order_.begin(), r.order_.end());
  return r;
}

NodeId Ring::successor(std::uint64_t point) const {
  const auto it = std::lower_bound(
      order_.begin(), order_.end(), point,
      [](const std::pair<std::uint64_t, NodeId>& a, std::uint64_t p) { return a.first < p; });
  return it == order_.end() ? order_.front().second : it->second;
}

void Ring::replicas(std::uint32_t key, int k, std::vector<NodeId>& out) const {
  out.clear();
  const std::uint64_t p = key_point(key);
  auto it = std::lower_bound(
      order_.begin(), order_.end(), p,
      [](const std::pair<std::uint64_t, NodeId>& a, std::uint64_t q) { return a.first < q; });
  if (it == order_.end()) it = order_.begin();
  const int take = std::min(k, n_alive());
  for (int i = 0; i < take; ++i) {
    out.push_back(it->second);
    ++it;
    if (it == order_.end()) it = order_.begin();
  }
}

Arc Ring::replica_arc(NodeId n, int k) const {
  O2K_REQUIRE(k >= 1, "dht: replica count must be >= 1");
  O2K_REQUIRE(n < n_total_ && is_alive(n), "dht: replica arc of a dead or unknown node");
  if (n_alive() <= k) return Arc{0, 0, true};
  // replicas() takes k consecutive ring entries starting at the key's
  // successor, so n (entry i) is in the set exactly when that successor is
  // one of entries i-k+1 .. i: the key point lies in (point[i-k], point[i]].
  const auto it = std::lower_bound(order_.begin(), order_.end(), std::pair{node_point(n), n});
  const auto i = static_cast<std::size_t>(it - order_.begin());
  const std::size_t N = order_.size();
  const std::size_t pred = (i + N - static_cast<std::size_t>(k)) % N;
  return Arc{order_[pred].first, it->first, false};
}

Fingers Fingers::build(const Ring& ring, NodeId n) {
  Fingers fg;
  fg.node = n;
  fg.point = node_point(n);
  for (int i = 0; i < 64; ++i) {
    fg.finger[static_cast<std::size_t>(i)] =
        ring.successor(fg.point + (std::uint64_t{1} << i));
  }
  return fg;
}

namespace {
/// Clockwise distance from a to b on the 2^64 ring.
constexpr std::uint64_t ring_dist(std::uint64_t a, std::uint64_t b) { return b - a; }
}  // namespace

std::pair<NodeId, int> next_hop(const Ring& ring, const Fingers& fg, std::uint32_t key) {
  const std::uint64_t kp = key_point(key);
  if (ring.owner(key) == fg.node) return {fg.node, 1};
  // Closest preceding finger: highest finger that lies strictly between this
  // node and the key (clockwise).  The scan length is what the routing step
  // is charged for.
  const std::uint64_t span = ring_dist(fg.point, kp);
  int scanned = 0;
  for (int i = 63; i >= 0; --i) {
    ++scanned;
    const NodeId f = fg.finger[static_cast<std::size_t>(i)];
    if (f == fg.node) continue;
    const std::uint64_t d = ring_dist(fg.point, node_point(f));
    if (d > 0 && d < span) return {f, scanned};
  }
  // No finger precedes the key: the immediate successor is the owner.
  return {fg.finger[0], scanned};
}

std::optional<ChurnEvent> churn_event(const std::vector<std::uint8_t>& alive, int min_alive,
                                      std::uint64_t seed, int e) {
  const int total = static_cast<int>(alive.size());
  int n_alive = 0;
  for (const auto a : alive) n_alive += a;
  const bool can_fail = n_alive > min_alive;
  const bool can_join = n_alive < total;
  if (!can_fail && !can_join) return std::nullopt;

  const std::uint64_t r = mix64(seed + 0x7c3a'11d9ULL * static_cast<std::uint64_t>(e + 1));
  bool fail;
  if (!can_fail) {
    fail = false;
  } else if (!can_join) {
    fail = true;
  } else {
    fail = (r & 1) != 0;
  }
  // Pick the (r>>1 mod count)-th node of the chosen population, in index
  // order — a pure function of the membership bitmap.
  const int count = fail ? n_alive : total - n_alive;
  int pick = static_cast<int>((r >> 1) % static_cast<std::uint64_t>(count));
  for (std::size_t n = 0; n < alive.size(); ++n) {
    if ((alive[n] != 0) != fail) continue;
    if (pick-- == 0) return ChurnEvent{fail, static_cast<NodeId>(n)};
  }
  O2K_CHECK(false, "dht: churn pick out of range");
}

std::vector<RepairXfer> plan_repair(const Ring& before, const Ring& after, std::uint32_t keys,
                                    int k) {
  O2K_REQUIRE(before.n_total() == after.n_total(), "dht: repair across different node counts");
  std::vector<Arc> moved;
  for (int m = 0; m < after.n_total(); ++m) {
    const auto n = static_cast<NodeId>(m);
    if (before.is_alive(n) == after.is_alive(n)) continue;
    moved.push_back(before.is_alive(n) ? before.replica_arc(n, k) : after.replica_arc(n, k));
  }
  std::vector<RepairXfer> out;
  std::vector<NodeId> old_set, new_set;
  for (std::uint32_t key = 0; key < keys; ++key) {
    const std::uint64_t p = key_point(key);
    if (std::none_of(moved.begin(), moved.end(), [p](const Arc& a) { return a.contains(p); }))
      continue;
    before.replicas(key, k, old_set);
    after.replicas(key, k, new_set);
    // Survivors of the old set still hold the key (a failed node's store is
    // cleared by its PE before the repair plan runs, and a failed node is
    // never alive in `after`).
    NodeId src = 0;
    bool have_src = false;
    for (const NodeId n : old_set) {
      if (after.is_alive(n)) {
        src = n;
        have_src = true;
        break;
      }
    }
    O2K_CHECK(have_src, "dht: key lost all replicas — churn outpaced repair");
    for (const NodeId d : new_set) {
      if (d == src) continue;
      bool held = false;
      for (const NodeId n : old_set) {
        if (n == d) {
          held = true;
          break;
        }
      }
      // A node that held the key before and survived still holds it; every
      // other new-set member (fresh joiner or shifted replica) fetches it.
      if (held && after.is_alive(d)) continue;
      out.push_back(RepairXfer{key, src, d});
    }
  }
  return out;
}

}  // namespace o2k::dht
