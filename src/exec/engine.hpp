// o2k::exec::FiberEngine — M:N stackful-fiber scheduler.
//
// Runs P logical ranks, each on its own guarded fiber stack, over M host
// workers.  Every rank is pinned to one worker — its synchronization domain
// (rt::DomainMap) — which owns a private local run queue.  Cross-worker
// wakes travel through per-pair SPSC mailboxes (exec/spsc.hpp) and a
// per-worker sleep eventcount, so the inter-domain hot path takes no lock;
// same-worker wakes are a plain deque push.  Every wake comes from a fiber
// running on a worker of the engine (see wake()).
//
// The calling thread doubles as worker 0, so at M=1 a run spawns no
// threads at all (this is what makes warm campaign forks sound).
//
// Parking suspends the *fiber* (a user-space context switch back to its
// worker) and waking enqueues the fiber on its worker's queue — no condvar
// signalling, no kernel involvement on the park/wake hot path.  The
// lost-wakeup window is closed by an epoch re-check after the suspend is
// published:
//
//   parker (fiber):        waker (any fiber of the run):
//     e = epoch              epoch.fetch_add(1)     [seq_cst]
//     test predicate         if status == kParked
//     park(e): switch out      and CAS(kParked -> kActive): enqueue
//   parker's worker, after the switch:
//     status.store(kParked)  [seq_cst]
//     if epoch != e and CAS(kParked -> kActive): resume in place
//
// seq_cst totally orders the epoch bump against the kParked store, so a
// wake concurrent with a park either sees kParked and enqueues, or bumped
// the epoch early enough that the worker's re-check sees it.  The CAS
// claim makes the resume exactly-once under concurrent wakers — which is
// also why the SPSC mailboxes can never overflow: a fiber is in flight
// through at most one queue at a time and only ever towards its own
// worker, so each ring sized to the consumer's owned-fiber count always
// has room.
//
// None of this carries timing information: a wake only means "re-evaluate
// your predicate".  Virtual time is computed from the cost model alone, so
// host scheduling (any M) cannot change simulated results — the golden
// fixture and the DomainDeterminism suite in tests/test_rt enforce this.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "exec/context.hpp"
#include "exec/spsc.hpp"

namespace o2k::exec {

/// Stack size honouring O2K_EXEC_STACK_KB, hardened: a value that is not a
/// fully-numeric decimal in [16, 1048576] KiB warns once to stderr and
/// falls back to the 1 MiB default (never a silent strtol 0).
[[nodiscard]] std::size_t resolved_stack_bytes();

class FiberEngine {
 public:
  /// `stack_bytes == 0` means: honour O2K_EXEC_STACK_KB, else 1 MiB.
  explicit FiberEngine(std::size_t stack_bytes = 0);
  ~FiberEngine();
  FiberEngine(const FiberEngine&) = delete;
  FiberEngine& operator=(const FiberEngine&) = delete;

  /// Run body(rank) for every rank in [0, nprocs), each on its own fiber,
  /// over `workers` host workers (1 <= workers <= nprocs), and return when
  /// all have finished.  `affinity` maps rank -> worker in [0, workers) and
  /// must stay valid for the whole run; it may be null when workers == 1.
  /// The engine is reusable: stacks are pooled across runs.
  void run(int nprocs, const std::function<void(int)>& body, int workers,
           const int* affinity);

  /// Current wait epoch of `rank` (the eventcount generation).
  [[nodiscard]] std::uint64_t wait_epoch(int rank) const {
    return fibers_[static_cast<std::size_t>(rank)]->epoch.load(std::memory_order_seq_cst);
  }

  /// Suspend the calling fiber (must be `rank`'s own fiber) until a wake
  /// arrives after the epoch read that returned `observed_epoch`.  Spurious
  /// resumes are allowed; the caller re-tests its predicate in a loop.
  void park(int rank, std::uint64_t observed_epoch);

  /// Wake `rank`: bump its epoch and, if its fiber is parked, move it to
  /// its runnable queue.  Precondition: the caller runs on a worker of this
  /// engine (a fiber of the current run), which names the SPSC mailbox the
  /// handoff travels through.
  void wake(int rank);

  /// Wake every rank of the current run.
  void wake_all();

  /// Number of host workers the last/current run uses.
  [[nodiscard]] int workers() const { return workers_used_; }

  /// Worker id of the calling host thread within this engine's pool, or -1
  /// when the caller is not a pool worker of this engine.  Identifies the
  /// producer side for domain-local lock-free structures.
  [[nodiscard]] int current_worker() const;

  /// True when every fiber of the current run except `rank` is either
  /// parked or finished — i.e. `rank` is the only runnable context.  Only
  /// meaningful at workers() == 1 (single host thread), where it proves the
  /// process is fork-safe: no other host thread exists and no other fiber
  /// can run until `rank` yields.  Non-atomic fields are read under that
  /// same single-thread assumption.
  [[nodiscard]] bool quiescent_except(int rank) const;

 private:
  struct Fiber {
    enum Status : int { kActive = 0, kParked = 1 };
    enum Reason : int { kPark = 0, kDone = 1 };

    ~Fiber() { ctx_release(ctx); }

    RawContext ctx;             ///< fiber state while suspended
    RawContext* home = nullptr; ///< worker context to switch back to
    std::unique_ptr<FiberStack> stack;
    FiberEngine* eng = nullptr;
    int rank = -1;
    int reason = kPark;         ///< why the last switch-out happened
    std::uint64_t park_epoch = 0;
    std::atomic<std::uint64_t> epoch{0};
    std::atomic<int> status{kActive};
  };

  /// Per-worker state.  `localq` and the inbox consumer cursors are
  /// owner-only; producers touch the inbox producer cursors and the sleep
  /// eventcount.
  /// Fiber completion is tracked globally (`finished_`) so the last
  /// finisher, on any worker, can end the run for every worker.
  struct WorkerState {
    RawContext ctx;
    std::deque<Fiber*> localq;
    std::vector<SpscRing<Fiber*>> inbox;  ///< [producer worker] -> ring
    // Sleep eventcount (same store-buffering-free protocol as the per-fiber
    // park/wake): producers bump `epoch` after delivering, and notify only
    // when `sleeping` is set; the owner re-drains between the epoch read
    // and the sleep.
    std::atomic<std::uint64_t> epoch{0};
    std::atomic<int> sleeping{0};
    std::mutex mu;
    std::condition_variable cv;
  };

  static void fiber_main(void* arg);  // ContextEntry
  void worker_main(int wid);
  [[nodiscard]] int worker_of(int rank) const {
    return workers_used_ == 1 ? 0 : affinity_[rank];
  }
  void deliver(Fiber* f);
  void notify_worker(WorkerState& w);
  bool drain_into_local(WorkerState& w);
  void requeue_parked(WorkerState& w, int wid);
  void ensure_capacity(int nprocs);

  std::size_t stack_bytes_;
  std::vector<std::unique_ptr<Fiber>> fibers_;

  int live_ = 0;  ///< fibers participating in the current run
  std::atomic<int> finished_{0};  ///< finished fibers of the run, all workers
  int workers_used_ = 0;
  const int* affinity_ = nullptr;  ///< rank -> worker
  std::vector<std::unique_ptr<WorkerState>> wstates_;
  const std::function<void(int)>* body_ = nullptr;
  std::mutex error_mu_;
  std::exception_ptr first_error_;  ///< guarded by error_mu_
};

}  // namespace o2k::exec
