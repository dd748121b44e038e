// CC-SAS — the cache-coherent shared-address-space programming model.
//
// In this model communication is *implicit*: PEs read and write a shared
// heap, and the hardware (here: a cost simulator) moves cache lines.  The
// backing store really is shared host memory, so data movement is free and
// correct by construction; what the simulator adds is the *virtual-time
// premium* of each access:
//
//   * a per-PE direct-mapped L2 tag/version cache (4 MB, 128 B lines);
//   * page-granularity homes (first-touch, round-robin or block placement)
//     — a miss on a remotely-homed page pays the NUMA round trip;
//   * an invalidation-based coherence approximation with *delayed commit*:
//     every line has a committed version and committed last-writer, both
//     updated only at barriers.  Within an epoch (the code between two
//     barriers) writers record themselves in an order-independent per-line
//     epoch-writer cell (sole writer r, or "multiple"); the barrier commit
//     — run by the releasing PE before any waiter resumes — bumps the
//     committed version (+1 sole, +2 multiple, so a sole writer's cached
//     copy survives the epoch and everyone else's goes stale) and installs
//     the committed writer.  A cached copy whose committed version is stale
//     counts as a miss, and writing a line whose committed writer is a
//     different PE pays an ownership-transfer premium.  False sharing
//     therefore emerges naturally, and — unlike an eagerly-published
//     version counter — every charge is a function of barrier-separated
//     state, so CC-SAS virtual times are bit-identical across runs and
//     host worker counts regardless of host scheduling.  First-touch page
//     homes commit the same way (minimum claiming rank wins; claimants
//     treat the page as local during the claiming epoch).  The one
//     remaining host-order-dependent primitive is Team::lock, whose
//     virtual-time serialisation follows host lock order (none of the
//     shipped SAS apps use it between barriers with timing-visible
//     effects; see DESIGN.md §4).
//
// Only the *premium* over a local miss is charged: the average local memory
// behaviour is already folded into the kernel work constants, so MP, SHMEM
// and CC-SAS charge identical compute for identical work (DESIGN.md §2).
//
// Team also provides the synchronisation the paper's SAS codes use:
// barriers, locks (virtual-time serialised), deterministic reductions, and
// static/dynamic parallel loops.  Dynamic scheduling dispatches chunks in
// *virtual-time order* (the PE whose clock is least gets the next chunk,
// ties broken by rank), which is what real self-scheduling achieves in real
// time — and because the tie-break is total, the chunk→PE assignment is a
// pure function of virtual time, bit-reproducible across worker counts.
#pragma once

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <type_traits>
#include <vector>

#include "common/check.hpp"
#include "rt/machine.hpp"
#include "sanitize/sanitize.hpp"

namespace o2k::rt {
class StateSink;
}  // namespace o2k::rt

namespace o2k::sas {

enum class Placement {
  kFirstTouch,   ///< page home = node of first touching PE (IRIX default)
  kRoundRobin,   ///< pages dealt across PEs at allocation
  kBlock,        ///< contiguous page blocks per PE at allocation
};

/// Handle to a shared allocation (byte offset into the World arena).
template <typename T>
struct SharedArray {
  std::size_t offset = 0;
  std::size_t count = 0;
};

/// The shared heap plus global coherence metadata.  Construct before
/// Machine::run; allocate arrays during (serial) setup; one run at a time.
class World {
 public:
  World(const origin::MachineParams& params, int nprocs,
        std::size_t arena_bytes = std::size_t{256} << 20,
        Placement default_placement = Placement::kFirstTouch);
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  [[nodiscard]] int size() const { return nprocs_; }
  [[nodiscard]] const origin::MachineParams& params() const { return params_; }
  [[nodiscard]] Placement default_placement() const { return placement_; }

  /// Allocate a shared array (not thread-safe: call from setup code only).
  /// `name`, when given, labels the region in sanitizer findings.
  template <typename T>
  SharedArray<T> alloc(std::size_t count, const char* name = nullptr) {
    return alloc<T>(count, placement_, name);
  }
  template <typename T>
  SharedArray<T> alloc(std::size_t count, Placement placement, const char* name = nullptr) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::size_t off = allocate(count * sizeof(T), placement, name);
    return SharedArray<T>{off, count};
  }

  /// Raw pointer into the arena — used by setup code and by Team accessors.
  template <typename T>
  [[nodiscard]] T* data(const SharedArray<T>& a) {
    return reinterpret_cast<T*>(arena_.get() + a.offset);
  }
  template <typename T>
  [[nodiscard]] std::span<T> span(const SharedArray<T>& a) {
    return {data(a), a.count};
  }

  /// Number of lock cells available to Team::lock.
  static constexpr int kNumLocks = 1024;

  /// Reset all page homes of an allocation to "untouched" so a subsequent
  /// parallel phase re-establishes first-touch placement.
  template <typename T>
  void reset_homes(const SharedArray<T>& a) {
    reset_homes_bytes(a.offset, a.count * sizeof(T));
  }
  void reset_homes_bytes(std::size_t offset, std::size_t bytes);

  [[nodiscard]] std::size_t arena_bytes() const { return arena_bytes_; }

 private:
  friend class Team;
  std::size_t allocate(std::size_t bytes, Placement placement, const char* name = nullptr);

  // Checkpoint state capture (rt::StateRegistry callback): committed
  // coherence metadata + the used arena prefix, digested deterministically.
  static void state_capture(void* world, rt::StateSink& sink);

  struct FreeDeleter {
    void operator()(void* p) const noexcept { std::free(p); }
  };
  const origin::MachineParams& params_;
  int nprocs_;
  Placement placement_;
  std::size_t arena_bytes_;
  std::size_t bump_ = 0;
  std::unique_ptr<std::byte[], FreeDeleter> arena_;

  std::size_t num_pages_ = 0;
  std::size_t num_lines_ = 0;
  int rr_next_ = 0;  ///< round-robin placement cursor

  // Per-PE epoch logs: which lines/pages this PE must commit at the next
  // barrier.  Exactly one PE logs each dirty line (the -1 -> r claimant)
  // and each claimed page (the -1 -> r CAS winner), so commit visits each
  // exactly once.
  struct alignas(128) EpochLog {
    std::vector<std::size_t> lines;
    std::vector<std::size_t> pages;
  };

  // Reduction scratch (one cacheline-padded slot per PE).
  struct alignas(128) RedSlot {
    double d;
    std::int64_t i;
  };

  // ---- per-home-domain directory shards ---------------------------------
  // The directory (page table + per-line coherence metadata) and the per-PE
  // scratch (epoch logs, reduction slots) live in per-domain allocations:
  // a contiguous block of pages — and the contiguous line range they cover
  // — per synchronization domain, each array 64-byte aligned so the shard a
  // domain's worker hammers never false-shares with its neighbours'.  This
  // is host memory *layout* only: indices stay global, every value and
  // every charge is identical to the former flat arrays, and the shard
  // count is a construction-time block approximation of the run's worker
  // count.
  //
  // Semantics of the cells are unchanged from the flat layout: committed
  // home / version / writer mutate only in serial context or at barrier
  // commit; `page_claim` and `epoch_writer` are the only concurrently-
  // mutated cells (-1 none, rank r, -2 multiple writers for lines; minimum
  // claiming rank wins for pages) and their per-epoch outcome is
  // order-independent.
  struct DirShard {
    std::size_t page_begin = 0, page_end = 0;  ///< [begin, end) global pages
    std::size_t line_begin = 0, line_end = 0;  ///< [begin, end) global lines
    int rank_begin = 0, rank_end = 0;          ///< [begin, end) global ranks
    std::unique_ptr<std::atomic<int>[], FreeDeleter> page_home;
    std::unique_ptr<std::atomic<int>[], FreeDeleter> page_claim;
    std::unique_ptr<std::uint32_t[], FreeDeleter> commit_ver;
    std::unique_ptr<int[], FreeDeleter> commit_writer;
    std::unique_ptr<std::atomic<int>[], FreeDeleter> epoch_writer;
    std::vector<EpochLog> logs;  ///< one per rank in [rank_begin, rank_end)
    std::vector<RedSlot> red;    ///< likewise
  };
  std::vector<DirShard> dir_;
  int dir_domains_ = 1;
  std::size_t dir_chunk_pages_ = 1;  ///< pages per shard (last may be short)

  [[nodiscard]] DirShard& shard_of_page(std::size_t p) { return dir_[p / dir_chunk_pages_]; }
  [[nodiscard]] std::size_t page_of_line(std::size_t l) const {
    return l * static_cast<std::size_t>(params_.cache_line_bytes) /
           static_cast<std::size_t>(params_.page_bytes);
  }
  [[nodiscard]] DirShard& shard_of_line(std::size_t l) { return shard_of_page(page_of_line(l)); }
  [[nodiscard]] DirShard& shard_of_rank(int r) {
    return dir_[static_cast<std::size_t>(r) * static_cast<std::size_t>(dir_domains_) /
                static_cast<std::size_t>(nprocs_)];
  }
  [[nodiscard]] std::atomic<int>& page_home(std::size_t p) {
    DirShard& s = shard_of_page(p);
    return s.page_home[p - s.page_begin];
  }
  [[nodiscard]] std::atomic<int>& page_claim(std::size_t p) {
    DirShard& s = shard_of_page(p);
    return s.page_claim[p - s.page_begin];
  }
  [[nodiscard]] std::uint32_t& line_ver(std::size_t l) {
    DirShard& s = shard_of_line(l);
    return s.commit_ver[l - s.line_begin];
  }
  [[nodiscard]] int& line_writer(std::size_t l) {
    DirShard& s = shard_of_line(l);
    return s.commit_writer[l - s.line_begin];
  }
  [[nodiscard]] std::atomic<int>& line_epoch(std::size_t l) {
    DirShard& s = shard_of_line(l);
    return s.epoch_writer[l - s.line_begin];
  }
  [[nodiscard]] EpochLog& epoch_log(int r) {
    DirShard& s = shard_of_rank(r);
    return s.logs[static_cast<std::size_t>(r - s.rank_begin)];
  }
  [[nodiscard]] RedSlot& red(int r) {
    DirShard& s = shard_of_rank(r);
    return s.red[static_cast<std::size_t>(r - s.rank_begin)];
  }

  /// 64-byte-aligned, value-initialised array for a shard segment.
  template <typename T>
  static std::unique_ptr<T[], FreeDeleter> alloc_shard_array(std::size_t n);

  void commit_epoch();
  static void commit_epoch_hook(void* world);

  // Locks: virtual-time serialisation state per lock id.
  struct LockCell {
    std::mutex mu;
    double last_release_ns = 0.0;
  };
  std::vector<LockCell> locks_{kNumLocks};

  // Dynamic-loop dispatcher state.  Waiting PEs park on their Machine wait
  // slots; `min_wait_clock` is the smallest entry clock among PEs in state
  // 1 (+inf when none), maintained under `mu`.  A busy PE whose mirrored
  // clock crosses it (Team::mirror_clock) wakes the team so waiters
  // re-evaluate the virtual-time dispatch order — the event that the old
  // implementation discovered by polling.  Only a clock *change* can cross:
  // mirror_clock returns early when the slot already holds now(), and a
  // read hit (Team::read_hit) takes no walk only while the slot is
  // current, so no skipped publication can hide a crossing from a waiter.
  struct Dispatch {
    std::mutex mu;
    std::size_t next = 0;
    std::size_t end = 0;
    std::uint64_t epoch = 0;
    std::atomic<double> min_wait_clock{std::numeric_limits<double>::infinity()};
  };
  Dispatch dispatch_;
  std::unique_ptr<std::atomic<double>[]> pe_clock_;   ///< mirrored clocks
  std::unique_ptr<std::atomic<int>[]> pe_state_;      ///< 0 busy, 1 waiting, 2 done
};

/// Per-PE handle to the shared-address-space machine.
class Team {
 public:
  Team(World& world, rt::Pe& pe);
  ~Team();

  [[nodiscard]] int rank() const { return pe_.rank(); }
  [[nodiscard]] int size() const { return pe_.size(); }
  [[nodiscard]] rt::Pe& pe() { return pe_; }
  [[nodiscard]] World& world() { return world_; }

  // ---- charged accesses -----------------------------------------------
  /// Charge a read of `bytes` starting at arena offset `off`.
  void touch_read(std::size_t off, std::size_t bytes) {
    if (!read_hit(off, bytes)) touch_read_ann(off, bytes, 0, 0, 0, /*atomic=*/false);
  }
  void touch_write(std::size_t off, std::size_t bytes);

  template <typename T>
  [[nodiscard]] T read(const SharedArray<T>& a, std::size_t i) {
    O2K_REQUIRE(i < a.count, "sas: read out of range");
    touch_read(a.offset + i * sizeof(T), sizeof(T));
    return world_.data(a)[i];
  }
  template <typename T>
  void write(const SharedArray<T>& a, std::size_t i, const T& v) {
    O2K_REQUIRE(i < a.count, "sas: write out of range");
    touch_write(a.offset + i * sizeof(T), sizeof(T));
    world_.data(a)[i] = v;
  }
  /// Charged bulk region accessors (for streaming loops).
  template <typename T>
  void touch_read_range(const SharedArray<T>& a, std::size_t first, std::size_t n) {
    O2K_REQUIRE(first + n <= a.count, "sas: range out of bounds");
    touch_read(a.offset + first * sizeof(T), n * sizeof(T));
  }
  template <typename T>
  void touch_write_range(const SharedArray<T>& a, std::size_t first, std::size_t n) {
    O2K_REQUIRE(first + n <= a.count, "sas: range out of bounds");
    touch_write(a.offset + first * sizeof(T), n * sizeof(T));
  }

  /// Field-annotated variants: the virtual-time charge is identical to
  /// touch_*_range over the same span (bit-identical clocks with or without
  /// the annotation), but the sanitizer is told that only the bytes
  /// [foff, foff+flen) of each element are accessed.  SPLASH-style kernels
  /// read one half of a struct while a concurrent owner writes the other
  /// half; without the annotation that is an apparent (false) race.
  template <typename T>
  void touch_read_fields(const SharedArray<T>& a, std::size_t first, std::size_t n,
                         std::size_t foff, std::size_t flen) {
    O2K_REQUIRE(first + n <= a.count, "sas: range out of bounds");
    O2K_REQUIRE(foff + flen <= sizeof(T), "sas: field annotation outside element");
    const std::size_t off = a.offset + first * sizeof(T);
    if (!read_hit(off, n * sizeof(T)))
      touch_read_ann(off, n * sizeof(T), sizeof(T), foff, flen, /*atomic=*/false);
  }
  template <typename T>
  void touch_write_fields(const SharedArray<T>& a, std::size_t first, std::size_t n,
                          std::size_t foff, std::size_t flen) {
    O2K_REQUIRE(first + n <= a.count, "sas: range out of bounds");
    O2K_REQUIRE(foff + flen <= sizeof(T), "sas: field annotation outside element");
    touch_write_ann(a.offset + first * sizeof(T), n * sizeof(T), sizeof(T), foff, flen,
                    /*atomic=*/false);
  }

  /// Atomic-annotated (synchronising) accesses: same charge as the plain
  /// variants; the sanitizer treats them as hardware atomics — no race
  /// between two atomics, and each overlapped 8-byte word carries an
  /// acquire/release edge (writer publishes, reader observes).
  void touch_read_atomic(std::size_t off, std::size_t bytes) {
    if (!read_hit(off, bytes)) touch_read_ann(off, bytes, 0, 0, 0, /*atomic=*/true);
  }
  void touch_write_atomic(std::size_t off, std::size_t bytes) {
    touch_write_ann(off, bytes, 0, 0, 0, /*atomic=*/true);
  }

  // ---- synchronisation ----------------------------------------------------
  void barrier();
  /// Hash a resource id onto one of World::kNumLocks lock cells.
  void lock(std::size_t id);
  void unlock(std::size_t id);

  /// Deterministic reductions (every PE reads all slots in rank order).
  double reduce_sum(double v);
  std::int64_t reduce_sum(std::int64_t v);
  double reduce_max(double v);

  // ---- parallel loops -------------------------------------------------------
  /// Static block schedule: calls fn(i) for this PE's contiguous share.
  template <typename Fn>
  void parallel_for_static(std::size_t begin, std::size_t end, Fn&& fn) {
    const auto [lo, hi] = static_range(begin, end);
    for (std::size_t i = lo; i < hi; ++i) fn(i);
  }
  [[nodiscard]] std::pair<std::size_t, std::size_t> static_range(std::size_t begin,
                                                                 std::size_t end) const;

  /// Dynamic self-scheduling with virtual-time-ordered chunk dispatch.
  /// Collective: every PE must call with identical arguments.  fn(i) runs
  /// once for every i in [begin, end); chunk→PE assignment follows virtual
  /// clocks.  An implicit barrier ends the loop.
  template <typename Fn>
  void parallel_for_dynamic(std::size_t begin, std::size_t end, std::size_t chunk, Fn&& fn) {
    dynamic_begin(begin, end);
    for (;;) {
      const auto [lo, hi] = dynamic_next(chunk);
      if (lo >= hi) break;
      for (std::size_t i = lo; i < hi; ++i) fn(i);
    }
    dynamic_end();
  }

 private:
  [[nodiscard]] bool is_local(int home_pe) const {
    return world_.params().node_of(home_pe) == world_.params().node_of(rank());
  }
  int page_home_for(std::size_t page);

  // Tracing scratch for one touch: per-home remote line counts, flushed in
  // ascending home order (matching the former std::map's iteration order).
  void note_remote_line(int home) {
    if (trace_lines_by_home_[static_cast<std::size_t>(home)] == 0) trace_homes_.push_back(home);
    ++trace_lines_by_home_[static_cast<std::size_t>(home)];
  }
  void emit_remote_traces();

  // Inline read hit.  True when [off, off+bytes) spans at most two lines
  // (one array element), both inside the directory shard the last read
  // walk ended in, each line hits in this PE's cache (tag match, and a
  // current committed version or this PE's own dirty copy of the epoch),
  // no sink or sanitizer observes the touch, and this PE's mirrored clock
  // is current.  The walk would then charge nothing, count nothing (the
  // first read touch always walks, see read_walked_), emit nothing and
  // leave the mirror unchanged, so skipping it is exact.  Every other touch
  // returns false and takes the walk.
  [[nodiscard]] bool read_hit(std::size_t off, std::size_t bytes) {
    if (!geom_shifts_ || bytes == 0) return false;
    const std::size_t first = off >> line_shift_;
    const std::size_t last = (off + bytes - 1) >> line_shift_;
    if (last - first > 1 || first - hit_lbase_ >= hit_lend_ - hit_lbase_ || last >= hit_lend_ ||
        off + bytes > world_.arena_bytes_)
      return false;
    if (!line_hits(first) || (last != first && !line_hits(last))) return false;
    if (pe_.tracing() || my_clock_->load(std::memory_order_relaxed) != pe_.now()) return false;
    return sanitize::active() == nullptr;
  }
  // The touch walk's hit test for `line`, inside the read_hit window.
  [[nodiscard]] bool line_hits(std::size_t line) const {
    const std::size_t set = sets_mask_ != 0 ? (line & sets_mask_) : (line % num_sets_);
    return tag_[set] == line + 1 &&
           (cached_version_[set] == hit_cver_[line - hit_lbase_] ||
            wrote_line_[line] == static_cast<std::uint32_t>(pe_.barrier_epochs() + 1));
  }

  // The real touch walks: charge + coherence update, then (only when a
  // sanitizer is installed) report the access with its annotation.
  void touch_read_ann(std::size_t off, std::size_t bytes, std::size_t elem,
                      std::size_t foff, std::size_t flen, bool atomic);
  void touch_write_ann(std::size_t off, std::size_t bytes, std::size_t elem,
                       std::size_t foff, std::size_t flen, bool atomic);

  void dynamic_begin(std::size_t begin, std::size_t end);
  std::pair<std::size_t, std::size_t> dynamic_next(std::size_t chunk);
  void dynamic_end();
  void mirror_clock();
  void wake_next_waiter();

  World& world_;
  rt::Pe& pe_;

  // Direct-mapped cache: tag + cached (committed) version per set.
  std::vector<std::uint64_t> tag_;
  std::vector<std::uint32_t> cached_version_;
  std::size_t num_sets_;

  // Lines this PE wrote in the current epoch, stamped with the PE's
  // barrier count + 1 so a barrier invalidates all stamps at once.
  // calloc-backed: pages commit lazily, so footprint tracks the lines this
  // PE actually writes, not the arena size.  Drives the "my dirty copy is
  // still valid" hit rule and the once-per-epoch writer claim — both
  // functions of this PE's own program only, never of host interleaving.
  std::unique_ptr<std::uint32_t[], World::FreeDeleter> wrote_line_;

  // Cached geometry and per-home cost tables (resolved once per Team so the
  // touch walk does no params indirection, division by non-constants, or
  // node_of arithmetic per line).  `read_premium_by_pe_[h]` is the exact
  // double remote_read_premium_ns(rank, h) would return, so hoisting it
  // keeps accumulated premiums bit-identical.
  std::size_t line_bytes_ = 0;
  std::size_t page_bytes_ = 0;
  std::size_t sets_mask_ = 0;  ///< num_sets_ - 1 when a power of two, else 0
  // Shift-based address arithmetic, valid when line and page sizes are
  // powers of two (the Origin2000 geometry): byte->line is >> line_shift_,
  // line->page is >> page_line_shift_.
  bool geom_shifts_ = false;
  unsigned line_shift_ = 0;
  unsigned page_line_shift_ = 0;
  double ownership_extra_ns_ = 0.0;
  std::vector<double> read_premium_by_pe_;
  std::vector<std::uint8_t> remote_by_pe_;  ///< 1 when that home is off-node
  std::vector<std::uint64_t> trace_lines_by_home_;
  std::vector<int> trace_homes_;

  // read_hit state.  The window [hit_lbase_, hit_lend_) and its committed
  // versions `hit_cver_` are the directory shard the last read walk ended
  // in; shard arrays live as long as the World, and the window stays empty
  // until the first read walk.  `my_clock_` is this PE's mirrored-clock slot.
  const std::uint32_t* hit_cver_ = nullptr;
  std::size_t hit_lbase_ = 0, hit_lend_ = 0;
  std::atomic<double>* my_clock_ = nullptr;
  // Whether this Team has walked a read (a write) touch.  A walk that
  // counted nothing calls add_counter only the first time: that first call
  // registers the counter keys, and later ones would add 0.
  bool read_walked_ = false;
  bool write_walked_ = false;

  // Interned counter ids, resolved once per Team so per-touch accounting
  // never hashes or allocates a name.
  rt::CounterId c_read_misses_{"sas.read_misses"};
  rt::CounterId c_remote_misses_{"sas.remote_misses"};
  rt::CounterId c_write_misses_{"sas.write_misses"};
  rt::CounterId c_ownership_{"sas.ownership_transfers"};
  rt::CounterId c_locks_{"sas.locks"};
};

}  // namespace o2k::sas
