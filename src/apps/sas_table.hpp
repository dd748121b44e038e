// A concurrent hash table living in the CC-SAS shared arena, used by the
// shared-memory remeshing code for edge marks and midpoint-vertex
// deduplication.
//
// This is genuine shared-memory application code of the kind the paper's
// CC-SAS version contains, written the way a careful SPLASH-era programmer
// would: every cross-PE update is a commutative, order-independent RMW
// (CAS-loop fetch-min / first-write-wins), so the table's contents at any
// barrier are a function of the *set* of operations in the preceding epoch,
// never of their interleaving.
//
// Determinism contract.  Every *charged* access for key k touches the same
// 32-byte home slot home(k) — the slot k hashes to — regardless of where
// linear probing physically placed the entry.  Virtual-time charges and
// coherence traffic are therefore pure functions of the key set; the
// physical probe walk uses host atomics and is left uncharged (it stands in
// for the same home-line access the charge already models, and open
// addressing keeps it short at the load factors the remesher runs at).
// Combined with the delayed-commit coherence model (src/sas/sas.hpp) this
// makes CC-SAS remeshing bit-reproducible across host worker counts.
//
// Slot layout (4 × u64): [key][stamp][owner][mid]
//   key    0 = empty, otherwise the edge key (key 0 is reserved)
//   stamp  0 = unmarked, otherwise the *minimum* round stamp (>= 1) any PE
//          marked the edge with — round-stamping gives closure its Jacobi
//          freeze without a separate pending/promote pass
//   owner  0 = unclaimed, otherwise min requester priority + 1 (the
//          smallest refining element adopting the edge creates its midpoint)
//   mid    0 = unpublished, otherwise midpoint vertex id + 1
#pragma once

#include <algorithm>
#include <atomic>

#include "common/check.hpp"
#include "sas/sas.hpp"

namespace o2k::apps {

class SasEdgeTable {
 public:
  SasEdgeTable(sas::World& world, std::size_t capacity) : world_(world) {
    std::size_t cap = 64;
    while (cap < capacity) cap <<= 1;
    cap_ = cap;
    slots_ = world.alloc<std::uint64_t>(kWords * cap_, "edge_table");
  }

  [[nodiscard]] std::size_t capacity() const { return cap_; }

  /// Parallel reset (collective): each PE clears its static slice.
  void clear(sas::Team& team) {
    const auto [lo, hi] = team.static_range(0, cap_);
    if (hi > lo) {
      team.touch_write_range(slots_, kWords * lo, kWords * (hi - lo));
      auto* base = world_.data(slots_);
      std::fill(base + kWords * lo, base + kWords * hi, 0);
    }
    team.barrier();
  }

  /// Mark the edge with a round stamp (>= 1); concurrent markers converge
  /// on the minimum stamp whatever the interleaving.
  void mark(sas::Team& team, std::uint64_t key, std::uint64_t stamp) {
    O2K_REQUIRE(stamp >= 1, "SasEdgeTable: stamps start at 1");
    charge_update(team, key);
    fetch_min_pub(intern(key)[1], stamp);
  }

  /// Marked with any stamp (post-closure view).
  [[nodiscard]] bool is_marked(sas::Team& team, std::uint64_t key) {
    return stamp_of(team, key) != 0;
  }

  /// Marked with a stamp <= `upto`: round r of closure passes r, so staged
  /// promotions (stamped r + 1) stay invisible until the next round —
  /// the Jacobi freeze, with no promote pass and no shared flag.
  [[nodiscard]] bool is_marked_by(sas::Team& team, std::uint64_t key, std::uint64_t upto) {
    const std::uint64_t s = stamp_of(team, key);
    return s != 0 && s <= upto;
  }

  /// Count marked edges whose *home* slot falls in my static slice
  /// (collective; call with the table quiescent, i.e. barrier-separated
  /// from any mark).  Attributing each key to its home — not to wherever
  /// probing physically placed it — keeps the per-PE split a pure function
  /// of the key set.
  [[nodiscard]] std::size_t count_marked_home(sas::Team& team) {
    const auto [lo, hi] = team.static_range(0, cap_);
    if (hi > lo) team.touch_read_range(slots_, kWords * lo, kWords * (hi - lo));
    const auto* base = world_.data(slots_);
    std::size_t n = 0;
    for (std::size_t i = 0; i < cap_; ++i) {
      const std::uint64_t key = base[kWords * i];
      if (key == 0 || base[kWords * i + 1] == 0) continue;
      const std::size_t home = home_index(key);
      if (home >= lo && home < hi) ++n;
    }
    return n;
  }

  /// Bid for midpoint ownership of an edge; the minimum priority across all
  /// requesters wins (order-independent).
  void request_mid(sas::Team& team, std::uint64_t key, std::uint64_t pri) {
    charge_update(team, key);
    fetch_min_pub(intern(key)[2], pri + 1);
  }

  /// Did `pri` win the ownership bid?  (Call after a barrier.)
  [[nodiscard]] bool owns_mid(sas::Team& team, std::uint64_t key, std::uint64_t pri) {
    charge_read(team, key);
    std::uint64_t* s = find(key);
    O2K_CHECK(s != nullptr, "SasEdgeTable: ownership query for unrequested edge");
    return std::atomic_ref<std::uint64_t>(s[2]).load(std::memory_order_acquire) == pri + 1;
  }

  /// Publish the midpoint vertex id (sole owner; first-write-wins).
  void put_mid(sas::Team& team, std::uint64_t key, std::int64_t vid) {
    charge_update(team, key);
    std::uint64_t* s = intern(key);
    std::atomic_ref<std::uint64_t>(s[3]).store(static_cast<std::uint64_t>(vid) + 1,
                                               std::memory_order_release);
  }

  /// Read a published midpoint vertex id (call after the owner's barrier).
  [[nodiscard]] std::int64_t mid_of(sas::Team& team, std::uint64_t key) {
    charge_read(team, key);
    std::uint64_t* s = find(key);
    O2K_CHECK(s != nullptr, "SasEdgeTable: midpoint lookup for unknown edge");
    const std::uint64_t v = std::atomic_ref<std::uint64_t>(s[3]).load(std::memory_order_acquire);
    O2K_CHECK(v != 0, "SasEdgeTable: midpoint not published");
    return static_cast<std::int64_t>(v - 1);
  }

 private:
  static constexpr std::size_t kWords = 4;

  [[nodiscard]] std::size_t home_index(std::uint64_t key) const {
    std::uint64_t h = key * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 29;
    return static_cast<std::size_t>(h) & (cap_ - 1);
  }
  [[nodiscard]] std::size_t home_off(std::uint64_t key) const {
    return slots_.offset + kWords * home_index(key) * sizeof(std::uint64_t);
  }

  // The deterministic charge model: reads touch the home slot; updates pay
  // one LL/SC claim and touch the home slot.  Atomic annotations, so
  // concurrent calls on the same edge are synchronising accesses, not races.
  void charge_read(sas::Team& team, std::uint64_t key) {
    team.touch_read_atomic(home_off(key), kWords * sizeof(std::uint64_t));
  }
  void charge_update(sas::Team& team, std::uint64_t key) {
    team.pe().advance(world_.params().sas_lock_ns);
    team.touch_write_atomic(home_off(key), kWords * sizeof(std::uint64_t));
  }

  [[nodiscard]] std::uint64_t stamp_of(sas::Team& team, std::uint64_t key) {
    charge_read(team, key);
    std::uint64_t* s = find(key);
    if (s == nullptr) return 0;
    return std::atomic_ref<std::uint64_t>(s[1]).load(std::memory_order_acquire);
  }

  /// CAS-loop fetch-min with 0 meaning "unset": the final value is the
  /// minimum over all published values regardless of interleaving.
  static void fetch_min_pub(std::uint64_t& word, std::uint64_t v) {
    std::atomic_ref<std::uint64_t> a(word);
    std::uint64_t cur = a.load(std::memory_order_acquire);
    while (cur == 0 || cur > v) {
      if (a.compare_exchange_weak(cur, v, std::memory_order_acq_rel)) return;
    }
  }

  /// Physical find-or-insert (host atomics, uncharged — see header).
  std::uint64_t* intern(std::uint64_t key) {
    O2K_REQUIRE(key != 0, "SasEdgeTable: key 0 is reserved");
    std::size_t i = home_index(key);
    for (std::size_t probes = 0; probes < cap_; ++probes) {
      std::uint64_t* s = world_.data(slots_) + kWords * i;
      std::atomic_ref<std::uint64_t> kref(s[0]);
      std::uint64_t k = kref.load(std::memory_order_acquire);
      if (k == key) return s;
      if (k == 0) {
        if (kref.compare_exchange_strong(k, key, std::memory_order_acq_rel)) return s;
        if (k == key) return s;  // lost the race to the same key
        // lost to a different key: fall through to the next probe
      }
      i = (i + 1) & (cap_ - 1);
    }
    O2K_CHECK(false, "SasEdgeTable full — size it larger");
  }

  /// Physical lookup; nullptr when the key was never interned.
  std::uint64_t* find(std::uint64_t key) {
    std::size_t i = home_index(key);
    for (std::size_t probes = 0; probes < cap_; ++probes) {
      std::uint64_t* s = world_.data(slots_) + kWords * i;
      const std::uint64_t k =
          std::atomic_ref<std::uint64_t>(s[0]).load(std::memory_order_acquire);
      if (k == key) return s;
      if (k == 0) return nullptr;
      i = (i + 1) & (cap_ - 1);
    }
    return nullptr;
  }

  sas::World& world_;
  std::size_t cap_ = 0;
  sas::SharedArray<std::uint64_t> slots_;
};

}  // namespace o2k::apps
