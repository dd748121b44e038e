// Raw stackful-context primitives for the o2k::exec fiber engine.
//
// A fiber is an ordinary call stack plus the callee-saved register state
// needed to resume it.  `ctx_swap` is a minimal hand-rolled context switch
// (x86-64 and aarch64 System V): it spills the callee-saved registers and
// the FP control words onto the *current* stack, publishes the resulting
// stack pointer, installs the target's saved stack pointer, and returns on
// the target's stack.  No signal-mask syscall is made — this is the whole
// point versus ucontext's swapcontext, whose per-switch sigprocmask would
// put a kernel round trip on the simulator's park/wake hot path.
//
// Stacks are mmap'd with a PROT_NONE guard page below the usable region, so
// an overflow faults deterministically instead of corrupting a neighbour.
//
// AddressSanitizer and ThreadSanitizer both need to be told about stack
// switches or they misattribute frames and accesses: ASan through
// __sanitizer_start/finish_switch_fiber (fake-stack and stack-bound
// bookkeeping), TSan through one __tsan fiber per context and
// __tsan_switch_to_fiber before every switch (which also gives TSan the
// happens-before edge the switch implies).  ctx_swap_to carries both, so the
// engine runs unchanged under every sanitizer.  Only x86-64 and aarch64 are
// supported; any other architecture fails to compile.
#pragma once

#include <cstddef>
#include <cstdint>

namespace o2k::exec {

/// An mmap'd fiber stack: `usable` bytes of RW memory above one PROT_NONE
/// guard page.  Not copyable; unmapped on destruction.
class FiberStack {
 public:
  explicit FiberStack(std::size_t usable_bytes);
  ~FiberStack();
  FiberStack(const FiberStack&) = delete;
  FiberStack& operator=(const FiberStack&) = delete;

  /// Highest address of the usable region (stacks grow down from here).
  [[nodiscard]] void* top() const { return base_ + map_bytes_; }
  /// Lowest usable address (just above the guard page).
  [[nodiscard]] void* bottom() const { return base_ + guard_bytes_; }
  [[nodiscard]] std::size_t usable_bytes() const { return map_bytes_ - guard_bytes_; }

 private:
  std::byte* base_ = nullptr;   ///< mmap base (guard page)
  std::size_t map_bytes_ = 0;   ///< total mapping incl. guard
  std::size_t guard_bytes_ = 0;
};

/// Saved execution state of one side of a switch.  For a fiber this is its
/// saved stack pointer while suspended; for a host thread it is the state
/// saved while the thread runs a fiber.  The asan_* fields carry the
/// sanitizer fake-stack handle and the stack bounds ASan reported when this
/// context was last suspended; `tsan_fiber` is TSan's handle for the
/// context (created by make_context, or the host thread's own).
struct RawContext {
  void* sp = nullptr;
  void* asan_fake_stack = nullptr;
  const void* asan_stack_bottom = nullptr;
  std::size_t asan_stack_size = 0;
  void* tsan_fiber = nullptr;
};

/// Entry function of a fresh context; receives the `arg` passed to the
/// first ctx_swap into it.  Must never return (switch away instead).
using ContextEntry = void (*)(void*) /*noreturn*/;

/// Prepare `ctx` so the first ctx_swap into it calls `entry(arg-of-swap)`
/// on `stack`.  The frame-pointer chain is terminated so unwinders (and
/// exception propagation inside the fiber) stop at the fiber's entry.
/// Under TSan it replaces the context's previous TSan fiber with a fresh one.
void make_context(RawContext& ctx, const FiberStack& stack, ContextEntry entry);

/// Release what make_context allocated for `ctx` beyond its stack (the TSan
/// fiber).  `ctx` must not be running.  No-op outside TSan builds.
void ctx_release(RawContext& ctx);

/// Record the calling OS thread's stack bounds (ASan) and its TSan fiber in
/// `ctx` so sanitizers can be pointed back at it when a fiber switches to
/// this host context.  No-op outside sanitizer builds.
void ctx_bind_host_stack(RawContext& ctx);

/// Sanitizer bookkeeping for the arrival side of a switch.  Called
/// automatically by ctx_swap_to on resume; a fresh context's entry function
/// must call it once before doing anything else.  No-op outside ASan.
void ctx_note_arrival(RawContext& self);

/// Switch from `from` to `to`, delivering `arg` as the return value of the
/// ctx_swap that suspended `to` (or as the entry argument of a fresh
/// context).  `to_stack` is the target's stack when the target is a fiber,
/// or nullptr when returning to a host thread's own stack.  `from_dying`
/// marks the final switch out of a finished fiber so sanitizers release its
/// bookkeeping.  Returns the `arg` delivered when `from` is next resumed.
void* ctx_swap_to(RawContext& from, RawContext& to, void* arg, const FiberStack* to_stack,
                  bool from_dying = false);

}  // namespace o2k::exec
