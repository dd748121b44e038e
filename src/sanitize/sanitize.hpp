// o2k::sanitize — opt-in correctness analysis for the three programming
// models (DESIGN.md §8).
//
// The simulator routes every CC-SAS access through Team::touch_read/
// touch_write, every MP operation through mp::Comm and every SHMEM
// operation through shmem::Ctx.  Those choke points make the *simulated*
// program analysable in a way the host program is not: this subsystem hangs
// three checkers off them —
//
//   * a FastTrack-style vector-clock data-race detector for CC-SAS, with
//     happens-before edges from barriers, lock cells, atomic-annotated
//     accesses, reductions (barrier-bracketed) and dynamic-dispatch chunk
//     handoff.  Shadow state is keyed by cache-line granule but records
//     byte intervals, so false sharing across a line is *not* reported as
//     a race (the cost simulator charges it; the detector stays silent);
//   * an MP protocol checker: unmatched sends and never-waited irecv
//     Requests at finalize, plus wildcard (kAnyTag) receives whose match is
//     ambiguous — resolved only by FIFO accident;
//   * a SHMEM synchronization checker: the same vector-clock engine over
//     put/get intervals per target heap, plus a lint for a PE get-ing a
//     symmetric region it has put to without an intervening fence/quiet/
//     barrier_all.
//
// Everything here is an *observer*: no hook advances a virtual clock or
// changes any substrate decision, so runs with sanitize off (and on) keep
// virtual times bit-identical to the golden substrate fixture.
//
// Activation: apps pass --sanitize[=report|abort]; benches and tests may
// set O2K_SANITIZE=report|abort (see init_from_env).  In abort mode the
// first finding is printed to stderr and the process aborts (TSan
// halt_on_error style), which is what makes the checkers enforceable in
// CI death tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace o2k::sanitize {

enum class Mode {
  kOff,
  kReport,  ///< collect + print each deduplicated finding once (stderr)
  kAbort,   ///< print the first finding and abort the process
};

/// Parse "off"/"0"/"" -> kOff, "report"/"1"/"on"/"true" -> kReport,
/// "abort"/"fatal" -> kAbort.  Unknown spellings -> kReport (fail loud
/// rather than silently off).
Mode mode_from_string(const std::string& s);
const char* mode_name(Mode m);

/// One deduplicated finding.  Dedup key: (kind, model, object, phase,
/// pe pair) — `count` accumulates repeats, `t_ns` keeps the first
/// occurrence's virtual time.
struct Finding {
  std::string kind;    ///< "sas-race", "mp-unmatched-send", ...
  std::string model;   ///< "CC-SAS", "MP", "SHMEM"
  std::string object;  ///< named array / region / message description
  std::string phase;   ///< reporting PE's phase at detection time
  int pe_a = -1;       ///< lower rank of the pair (or the only rank)
  int pe_b = -1;       ///< higher rank (-1 when single-PE finding)
  double t_ns = 0.0;   ///< virtual time of the first occurrence
  std::uint64_t count = 1;
  std::string detail;  ///< free-form: byte intervals, tags, access kinds
};

struct Stats {
  std::uint64_t sas_accesses = 0;    ///< checked touch calls
  std::uint64_t shmem_accesses = 0;  ///< checked put/get/atomic ops
  std::uint64_t mp_recvs = 0;        ///< checked receives
  std::uint64_t sync_ops = 0;        ///< barrier/lock/atomic HB edges applied
  std::uint64_t dropped = 0;         ///< shadow evictions (possible false negatives)
};

namespace detail {
class RaceEngine;
}

/// The analysis context.  Install with Scope (or init_from_env) before
/// constructing substrate Worlds; all hooks are thread-safe (PEs on different workers
/// call them concurrently) and observer-only.
class Sanitizer {
 public:
  explicit Sanitizer(Mode mode);
  ~Sanitizer();
  Sanitizer(const Sanitizer&) = delete;
  Sanitizer& operator=(const Sanitizer&) = delete;

  [[nodiscard]] Mode mode() const { return mode_; }

  // ---- lifecycle (called by the substrate Worlds) -----------------------
  void begin_sas_world(int nprocs);
  /// Name an arena region so findings say "bodies", not "offset 0x2000".
  void sas_region(std::size_t offset, std::size_t bytes, const char* name);
  void begin_mp_world(int nprocs);
  /// Finalize checks: called from mp::World's destructor after it reported
  /// leftover mailbox messages via mp_unmatched_send.
  void end_mp_world();
  void begin_shmem_world(int nprocs);

  // ---- CC-SAS hooks -----------------------------------------------------
  /// One charged touch.  Contiguous when elem == 0; otherwise a strided
  /// field annotation: `bytes/elem` elements, each contributing the byte
  /// interval [foff, foff+flen) (see Team::touch_*_fields).
  void sas_access(int rank, std::size_t off, std::size_t bytes, std::size_t elem,
                  std::size_t foff, std::size_t flen, bool write, bool atomic,
                  double now, std::uint32_t phase);
  void sas_barrier_enter(int rank);
  void sas_barrier_exit(int rank);
  void sas_acquire(int rank, std::size_t lock_key);
  void sas_release(int rank, std::size_t lock_key);
  /// Dynamic-dispatch chunk claim: read-modify-write on the shared chunk
  /// cursor, ordering successive claims.
  void sas_dispatch_claim(int rank);

  // ---- MP hooks ---------------------------------------------------------
  /// Returns a nonzero id tracked until mp_wait_done (0 when inactive).
  std::uint64_t mp_register_irecv(int rank, int src, int tag);
  void mp_wait_done(std::uint64_t sid);
  /// A completed receive.  `distinct_tags_pending` is the number of
  /// distinct tags queued from `src` at match time; with a kAnyTag recv
  /// and >= 2 distinct tags the match is FIFO accident, not protocol.
  void mp_recv(int rank, int src, int tag, bool any_tag, int distinct_tags_pending,
               double now, std::uint32_t phase);
  void mp_unmatched_send(int src, int dst, int tag, std::size_t bytes, double arrival_ns);

  // ---- SHMEM hooks ------------------------------------------------------
  void shmem_put(int rank, int target, std::size_t off, std::size_t bytes, double now,
                 std::uint32_t phase);
  void shmem_get(int rank, int target, std::size_t off, std::size_t bytes, double now,
                 std::uint32_t phase);
  /// fence()/quiet(): orders this PE's prior puts (clears the unfenced set).
  void shmem_fence(int rank);
  void shmem_barrier_enter(int rank);
  void shmem_barrier_exit(int rank);
  /// Remote atomic (fetch_add/cswap): atomic access + bidirectional HB.
  void shmem_atomic(int rank, int target, std::size_t off, double now, std::uint32_t phase);
  /// One-sided release edge: signal delivery, clear_lock.
  void shmem_release(int rank, int target, std::size_t off, double now, std::uint32_t phase);
  /// Matching acquire edge: wait_signal on the local cell.
  void shmem_acquire(int rank, int target, std::size_t off);

  // ---- results ----------------------------------------------------------
  [[nodiscard]] std::vector<Finding> findings() const;
  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::uint64_t finding_count() const;

  /// Internal: dedup + record + stderr print (+ abort in kAbort mode).
  /// Public so the race engine can report through its owner.
  void report(Finding f);

 private:
  /// Engine callback: build, dedup and emit a race finding.  Called with
  /// mu_ held (all engine methods run under it).
  void report_race(const std::string& kind, const std::string& model, std::uint64_t space,
                   std::size_t lo, std::size_t hi, int pe_a, int pe_b, bool a_write,
                   bool a_atomic, std::uint32_t a_phase, bool b_write, bool b_atomic,
                   std::uint32_t b_phase, double now);
  void note_dropped() { stats_.dropped++; }
  void report_locked(Finding f);

  [[nodiscard]] std::string sas_object_at(std::size_t off) const;
  [[nodiscard]] static std::string phase_name(std::uint32_t phase);

  struct Region {
    std::size_t offset;
    std::size_t bytes;
    std::string name;
  };
  struct PendingPut {
    int target;
    std::size_t off;
    std::size_t bytes;
  };
  struct Irecv {
    int rank;
    int src;
    int tag;
    bool done;
  };

  Mode mode_;
  mutable std::mutex mu_;
  std::map<std::string, Finding> findings_;  ///< dedup-key -> finding
  Stats stats_;
  std::vector<Region> sas_regions_;

  std::unique_ptr<detail::RaceEngine> sas_engine_;
  std::unique_ptr<detail::RaceEngine> shmem_engine_;

  // MP protocol state.
  std::uint64_t next_sid_ = 1;
  std::map<std::uint64_t, Irecv> irecvs_;

  // SHMEM unfenced-put state, per initiating PE.
  std::vector<std::deque<PendingPut>> unfenced_;

  friend class detail::RaceEngine;
};

/// The installed analysis context; nullptr when sanitizing is off.  Hooks
/// are expected to be guarded with `if (auto* s = sanitize::active())`.
[[nodiscard]] Sanitizer* active();

/// RAII installation (nestable; restores the previous context).  Passing
/// nullptr or a kOff sanitizer disables analysis inside the scope.
class Scope {
 public:
  explicit Scope(Sanitizer* s);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Sanitizer* prev_;
};

/// Mode requested by the O2K_SANITIZE environment variable (kOff when
/// unset).  Benches call init_from_env() once at startup: it installs a
/// process-lifetime Sanitizer when the env asks for one and nothing is
/// installed yet.
[[nodiscard]] Mode env_mode();
void init_from_env();

}  // namespace o2k::sanitize
