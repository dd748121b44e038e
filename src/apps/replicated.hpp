// Host-side sharing of functionally-replicated computations.
//
// Several application codes intentionally *replicate* a deterministic
// computation on every PE — the replicated ORB repartition in the MP/SHMEM
// N-body codes, the identical initial mesh/body generation in every PE's
// uncharged setup.  The simulated machine charges each PE for its share of
// the parallel algorithm (an analytic `pe.advance`), but the *functional*
// result used to be recomputed by every PE thread, making the host cost of
// a P-processor run O(P x work) for work whose virtual cost is O(work / P).
//
// Replicated<T> computes each keyed result once and hands every other PE a
// shared reference.  Because the memoised functions are pure and their
// inputs are identical on every PE (that is what "replicated" means here),
// the value each PE observes is bit-identical to what it would have
// computed itself — virtual clocks, counters and traces are unaffected.
//
// Blocking discipline: waiters block on a plain host condition variable,
// *outside* the rt wait registry.  That is safe only because the computing
// PE never enters virtual-time waits inside `fn` (the functions memoised
// here are pure host computations), so the wait always terminates and
// cannot deadlock against barriers or aborts.  When `fn` throws, the entry
// keeps the exception and every caller for that key — the computing PE and
// each waiter — rethrows it, so no waiter is left blocked.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

namespace o2k::apps::detail {

template <typename T>
class Replicated {
 public:
  /// Return the shared result for `key`, running `fn` on the first caller.
  /// `fn` must be a pure function whose value is identical across PEs for
  /// the same key, and must not block on virtual-time events.  If `fn`
  /// throws, every call for `key` rethrows that exception.
  template <typename Fn>
  std::shared_ptr<const T> get(std::uint64_t key, Fn&& fn) {
    std::unique_lock lk(mu_);
    Entry& e = entries_[key];
    if (e.state == Entry::kIdle) {
      e.state = Entry::kComputing;
      lk.unlock();
      std::shared_ptr<const T> value;
      std::exception_ptr error;
      try {
        value = std::make_shared<const T>(fn());
      } catch (...) {
        error = std::current_exception();
      }
      lk.lock();
      e.value = std::move(value);
      e.error = error;
      e.state = Entry::kDone;
      cv_.notify_all();
    }
    cv_.wait(lk, [&] { return e.state == Entry::kDone; });
    if (e.error) std::rethrow_exception(e.error);
    return e.value;
  }

 private:
  struct Entry {
    enum State : std::uint8_t { kIdle, kComputing, kDone };
    State state = kIdle;
    std::shared_ptr<const T> value;
    std::exception_ptr error;  ///< set instead of `value` when `fn` threw
  };
  std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::uint64_t, Entry> entries_;  // node-stable: waiters hold Entry&
};

}  // namespace o2k::apps::detail
