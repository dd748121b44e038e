#include "exec/engine.hpp"

#include <cassert>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "common/check.hpp"
#include "common/env.hpp"

namespace o2k::exec {

namespace {

/// Which engine/worker the current OS thread is, if it is a pool worker.
/// Lets wake() route a cross-worker handoff through the right SPSC ring
/// (producer identity is the ring index).
struct TlsWorker {
  FiberEngine* eng = nullptr;
  int wid = -1;
};
thread_local TlsWorker tls_worker;

}  // namespace

std::size_t resolved_stack_bytes() {
  // Parse with full-token validation and range check: "64MB" or "-1" warns
  // and falls back instead of strtol'ing to a nonsense stack size.
  const std::int64_t kb =
      common::env_int_or("O2K_EXEC_STACK_KB", /*fallback=*/1024, /*min=*/16,
                         /*max=*/1 << 20);
  return static_cast<std::size_t>(kb) * 1024;
}

FiberEngine::FiberEngine(std::size_t stack_bytes)
    : stack_bytes_(stack_bytes != 0 ? stack_bytes : resolved_stack_bytes()) {}

FiberEngine::~FiberEngine() = default;

void FiberEngine::ensure_capacity(int nprocs) {
  while (fibers_.size() < static_cast<std::size_t>(nprocs)) {
    auto f = std::make_unique<Fiber>();
    f->stack = std::make_unique<FiberStack>(stack_bytes_);
    f->eng = this;
    f->rank = static_cast<int>(fibers_.size());
    fibers_.push_back(std::move(f));
  }
}

void FiberEngine::fiber_main(void* arg) {
  auto* f = static_cast<Fiber*>(arg);
  ctx_note_arrival(f->ctx);
  // The body is rt::Machine's per-PE wrapper, which catches everything the
  // simulated program throws (including abort unwinds).  The catch here is
  // a backstop so a throwing body cannot unwind off the fiber stack.
  try {
    (*f->eng->body_)(f->rank);
  } catch (...) {
    std::lock_guard<std::mutex> lk(f->eng->error_mu_);
    if (!f->eng->first_error_) f->eng->first_error_ = std::current_exception();
  }
  f->reason = Fiber::kDone;
  ctx_swap_to(f->ctx, *f->home, nullptr, nullptr, /*from_dying=*/true);
  std::abort();  // a finished fiber must never be resumed
}

void FiberEngine::run(int nprocs, const std::function<void(int)>& body, int workers,
                      const int* affinity) {
  O2K_REQUIRE(workers >= 1, "FiberEngine: need at least one worker");
  O2K_REQUIRE(workers <= nprocs, "FiberEngine: more workers than ranks");
  O2K_REQUIRE(workers == 1 || affinity != nullptr,
              "FiberEngine: multi-worker run needs an affinity table");
  ensure_capacity(nprocs);
  live_ = nprocs;
  body_ = &body;
  first_error_ = nullptr;
  workers_used_ = workers;
  affinity_ = affinity;
  finished_.store(0, std::memory_order_relaxed);
  while (wstates_.size() < static_cast<std::size_t>(workers))
    wstates_.push_back(std::make_unique<WorkerState>());
  for (int w = 0; w < workers; ++w) {
    WorkerState& ws = *wstates_[static_cast<std::size_t>(w)];
    ws.localq.clear();
    ws.epoch.store(0, std::memory_order_relaxed);
    ws.sleeping.store(0, std::memory_order_relaxed);
    if (ws.inbox.size() < static_cast<std::size_t>(workers))
      ws.inbox = std::vector<SpscRing<Fiber*>>(static_cast<std::size_t>(workers));
  }
  for (int r = 0; r < nprocs; ++r) {
    Fiber* f = fibers_[static_cast<std::size_t>(r)].get();
    f->epoch.store(0, std::memory_order_relaxed);
    f->status.store(Fiber::kActive, std::memory_order_relaxed);
    f->reason = Fiber::kPark;
    make_context(f->ctx, *f->stack, &FiberEngine::fiber_main);
    wstates_[static_cast<std::size_t>(worker_of(r))]->localq.push_back(f);
  }
  // Each mailbox must hold every fiber its consumer owns (see spsc.hpp);
  // the seeded run queue has exactly that length.  Rings are pooled across
  // runs and only regrown.
  for (int w = 0; w < workers; ++w) {
    WorkerState& ws = *wstates_[static_cast<std::size_t>(w)];
    for (auto& ring : ws.inbox)
      if (ring.capacity() < ws.localq.size()) ring.init(ws.localq.size());
  }
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(workers - 1));
  for (int w = 1; w < workers; ++w) threads.emplace_back([this, w] { worker_main(w); });
  worker_main(0);
  for (auto& t : threads) t.join();

  body_ = nullptr;
  affinity_ = nullptr;
  if (first_error_) std::rethrow_exception(first_error_);
}

void FiberEngine::worker_main(int wid) {
  WorkerState& w = *wstates_[static_cast<std::size_t>(wid)];
  ctx_bind_host_stack(w.ctx);
  const TlsWorker saved = tls_worker;
  tls_worker = TlsWorker{this, wid};
  while (finished_.load(std::memory_order_acquire) != live_) {
    if (w.localq.empty()) {
      // Sleep eventcount: read the epoch, re-drain, and only then commit to
      // the condvar — a producer always delivers before bumping the epoch,
      // so either the re-drain sees the fiber or the epoch moved.  The last
      // finisher counts completion before its bump, so an epoch read after
      // that bump must also see the run complete.
      const std::uint64_t e = w.epoch.load(std::memory_order_seq_cst);
      if (drain_into_local(w)) continue;
      if (finished_.load(std::memory_order_seq_cst) == live_) break;
      std::unique_lock<std::mutex> lk(w.mu);
      w.sleeping.store(1, std::memory_order_seq_cst);
      if (w.epoch.load(std::memory_order_seq_cst) == e) {
#if defined(O2K_BOUNDED_WAITS)
        // Debug fallback: never sleep unboundedly; periodically reclaim this
        // worker's parked fibers so a lost wakeup degrades to polling
        // instead of a hang.
        if (w.cv.wait_for(lk, std::chrono::seconds(1)) == std::cv_status::timeout) {
          requeue_parked(w, wid);
        }
#else
        w.cv.wait(lk, [&] { return w.epoch.load(std::memory_order_relaxed) != e; });
#endif
      }
      w.sleeping.store(0, std::memory_order_relaxed);
      continue;
    }
    Fiber* f = w.localq.front();
    w.localq.pop_front();
    for (;;) {
      f->home = &w.ctx;
      ctx_swap_to(w.ctx, f->ctx, f, f->stack.get());
      if (f->reason == Fiber::kDone) {
        // Completion is global: the last finisher pokes every other
        // worker so none sleeps through the end of the run.
        if (finished_.fetch_add(1, std::memory_order_acq_rel) + 1 == live_) {
          for (int o = 0; o < workers_used_; ++o) {
            if (o != wid) notify_worker(*wstates_[static_cast<std::size_t>(o)]);
          }
        }
        break;
      }
      // The fiber asked to park.  Publish kParked, then re-check its wait
      // epoch: a waker that ran between the fiber's epoch read and this
      // store saw status != kParked and did not enqueue, so reclaim the
      // fiber here.  The CAS arbitrates against concurrent wakers so the
      // fiber is resumed exactly once.
      f->status.store(Fiber::kParked, std::memory_order_seq_cst);
      if (f->epoch.load(std::memory_order_seq_cst) != f->park_epoch) {
        int expected = Fiber::kParked;
        if (f->status.compare_exchange_strong(expected, Fiber::kActive,
                                              std::memory_order_seq_cst)) {
          continue;  // resume it right here, still hot on this worker
        }
      }
      break;
    }
  }
  tls_worker = saved;
}

bool FiberEngine::drain_into_local(WorkerState& w) {
  bool any = false;
  Fiber* f = nullptr;
  for (auto& ring : w.inbox) {
    while (ring.pop(f)) {
      w.localq.push_back(f);
      any = true;
    }
  }
  return any;
}

void FiberEngine::park(int rank, std::uint64_t observed_epoch) {
  Fiber* f = fibers_[static_cast<std::size_t>(rank)].get();
  f->park_epoch = observed_epoch;
  f->reason = Fiber::kPark;
  ctx_swap_to(f->ctx, *f->home, nullptr, nullptr);
  // Resumed: the caller (Pe::park_until) loops and re-tests its predicate.
}

void FiberEngine::notify_worker(WorkerState& w) {
  w.epoch.fetch_add(1, std::memory_order_seq_cst);
  if (w.sleeping.load(std::memory_order_seq_cst) != 0) {
    std::lock_guard<std::mutex> lk(w.mu);
    w.cv.notify_one();
  }
}

void FiberEngine::deliver(Fiber* f) {
  const int dst = worker_of(f->rank);
  WorkerState& w = *wstates_[static_cast<std::size_t>(dst)];
  const TlsWorker t = tls_worker;
  // Every waker is a fiber of this run (Pe::wake/wake_all, the abort in
  // Machine::record_error, a rendezvous release), so it runs on one of our
  // workers and owns the producer side of that worker's ring.
  assert(t.eng == this && "FiberEngine::wake called off the engine's workers");
  if (t.wid == dst) {
    // Same worker: plain owner-thread push, no notification needed — we
    // are by definition awake.
    w.localq.push_back(f);
    return;
  }
  w.inbox[static_cast<std::size_t>(t.wid)].push(f);
  notify_worker(w);
}

void FiberEngine::wake(int rank) {
  Fiber* f = fibers_[static_cast<std::size_t>(rank)].get();
  f->epoch.fetch_add(1, std::memory_order_seq_cst);
  if (f->status.load(std::memory_order_seq_cst) == Fiber::kParked) {
    int expected = Fiber::kParked;
    if (f->status.compare_exchange_strong(expected, Fiber::kActive,
                                          std::memory_order_seq_cst)) {
      deliver(f);
    }
  }
}

void FiberEngine::wake_all() {
  for (int r = 0; r < live_; ++r) wake(r);
}

int FiberEngine::current_worker() const {
  const TlsWorker t = tls_worker;
  return t.eng == this ? t.wid : -1;
}

bool FiberEngine::quiescent_except(int rank) const {
  for (int r = 0; r < live_; ++r) {
    if (r == rank) continue;
    const Fiber* f = fibers_[static_cast<std::size_t>(r)].get();
    if (f->reason == Fiber::kDone) continue;
    if (f->status.load(std::memory_order_seq_cst) != Fiber::kParked) return false;
  }
  return true;
}

void FiberEngine::requeue_parked(WorkerState& w, int wid) {
  // Bounded-waits fallback: reclaim only *our* parked fibers (the CAS keeps
  // exactly-once resume against concurrent wakers and other workers'
  // fallbacks).
  for (int r = 0; r < live_; ++r) {
    if (worker_of(r) != wid) continue;
    Fiber* f = fibers_[static_cast<std::size_t>(r)].get();
    int expected = Fiber::kParked;
    if (f->status.compare_exchange_strong(expected, Fiber::kActive,
                                          std::memory_order_seq_cst)) {
      w.localq.push_back(f);
    }
  }
}

}  // namespace o2k::exec
