#include "exec/context.hpp"

#include <pthread.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <new>
#include <stdexcept>

// ---------------------------------------------------------------------------
// Sanitizer feature detection.  GCC defines __SANITIZE_ADDRESS__ /
// __SANITIZE_THREAD__; clang exposes __has_feature.
// ---------------------------------------------------------------------------
#if defined(__SANITIZE_ADDRESS__)
#define O2K_EXEC_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define O2K_EXEC_ASAN 1
#endif
#endif

#if defined(__SANITIZE_THREAD__)
#define O2K_EXEC_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define O2K_EXEC_TSAN 1
#endif
#endif

#if defined(O2K_EXEC_TSAN)
extern "C" {
void* __tsan_get_current_fiber();
void* __tsan_create_fiber(unsigned flags);
void __tsan_destroy_fiber(void* fiber);
void __tsan_switch_to_fiber(void* fiber, unsigned flags);
}
#endif

#if defined(O2K_EXEC_ASAN)
extern "C" {
void __sanitizer_start_switch_fiber(void** fake_stack_save, const void* bottom, size_t size);
void __sanitizer_finish_switch_fiber(void* fake_stack_save, const void** bottom_old,
                                     size_t* size_old);
}
#endif

// ---------------------------------------------------------------------------
// The raw switch.  C-callable:
//
//   void* o2k_ctx_swap(void** save_sp, void* restore_sp, void* arg);
//
// Saves the callee-saved register file (plus MXCSR/x87-CW on x86-64, the
// low halves of v8–v15 on aarch64 — everything the System V ABI requires a
// callee to preserve) on the current stack, stores the final stack pointer
// through save_sp, switches to restore_sp, restores, and returns `arg` on
// the target side.  Caller-saved registers need no treatment: from the
// compiler's perspective o2k_ctx_swap is just an opaque function call.
//
// A fresh context (make_context) is a fabricated save-area whose return
// address is the entry thunk and whose saved rbx/x19 slot holds the C++
// entry function; the thunk zeroes the frame pointer and marks the return
// address unwind-undefined so backtraces and exception unwinds terminate at
// the fiber boundary instead of walking off into whatever the stack
// happened to contain.
// ---------------------------------------------------------------------------

#if defined(__x86_64__)

// Save-area layout, low to high: [mxcsr:4|fcw:2|pad:2] r15 r14 r13 r12 rbx
// rbp <return address>.
asm(R"(
  .text
  .align 16
  .globl o2k_ctx_swap
  .type o2k_ctx_swap, @function
o2k_ctx_swap:
  .cfi_startproc
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq  $8, %rsp
  stmxcsr (%rsp)
  fnstcw  4(%rsp)
  movq  %rsp, (%rdi)
  movq  %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw   4(%rsp)
  addq  $8, %rsp
  popq  %r15
  popq  %r14
  popq  %r13
  popq  %r12
  popq  %rbx
  popq  %rbp
  movq  %rdx, %rax
  retq
  .cfi_endproc
  .size o2k_ctx_swap, .-o2k_ctx_swap

  .align 16
  .globl o2k_ctx_entry_thunk
  .type o2k_ctx_entry_thunk, @function
o2k_ctx_entry_thunk:
  .cfi_startproc
  .cfi_undefined %rip
  .cfi_undefined %rbp
  movq  %rax, %rdi
  xorl  %ebp, %ebp
  andq  $-16, %rsp
  callq *%rbx
  ud2
  .cfi_endproc
  .size o2k_ctx_entry_thunk, .-o2k_ctx_entry_thunk
)");

#elif defined(__aarch64__)

// Save-area layout, low to high: x19 x20 x21 x22 x23 x24 x25 x26 x27 x28
// x29(fp) x30(lr) d8 d9 d10 d11 d12 d13 d14 d15 — 160 bytes, 16-aligned.
asm(R"(
  .text
  .align 4
  .globl o2k_ctx_swap
  .type o2k_ctx_swap, @function
o2k_ctx_swap:
  .cfi_startproc
  sub sp, sp, #160
  stp x19, x20, [sp, #0]
  stp x21, x22, [sp, #16]
  stp x23, x24, [sp, #32]
  stp x25, x26, [sp, #48]
  stp x27, x28, [sp, #64]
  stp x29, x30, [sp, #80]
  stp d8,  d9,  [sp, #96]
  stp d10, d11, [sp, #112]
  stp d12, d13, [sp, #128]
  stp d14, d15, [sp, #144]
  mov x9, sp
  str x9, [x0]
  mov sp, x1
  ldp x19, x20, [sp, #0]
  ldp x21, x22, [sp, #16]
  ldp x23, x24, [sp, #32]
  ldp x25, x26, [sp, #48]
  ldp x27, x28, [sp, #64]
  ldp x29, x30, [sp, #80]
  ldp d8,  d9,  [sp, #96]
  ldp d10, d11, [sp, #112]
  ldp d12, d13, [sp, #128]
  ldp d14, d15, [sp, #144]
  add sp, sp, #160
  mov x0, x2
  ret
  .cfi_endproc
  .size o2k_ctx_swap, .-o2k_ctx_swap

  .align 4
  .globl o2k_ctx_entry_thunk
  .type o2k_ctx_entry_thunk, @function
o2k_ctx_entry_thunk:
  .cfi_startproc
  .cfi_undefined x30
  mov x29, #0
  mov x30, #0
  blr x19
  brk #0
  .cfi_endproc
  .size o2k_ctx_entry_thunk, .-o2k_ctx_entry_thunk
)");

#else
#error "o2k::exec fibers support x86-64 and aarch64 only"
#endif  // arch

extern "C" {
void* o2k_ctx_swap(void** save_sp, void* restore_sp, void* arg);
void o2k_ctx_entry_thunk();
}

namespace o2k::exec {

// ---------------------------------------------------------------------------
// FiberStack
// ---------------------------------------------------------------------------

FiberStack::FiberStack(std::size_t usable_bytes) {
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  guard_bytes_ = page;
  // Round the usable region up to whole pages; minimum one page.
  std::size_t usable = ((usable_bytes + page - 1) / page) * page;
  if (usable == 0) usable = page;
  map_bytes_ = guard_bytes_ + usable;
  void* p = ::mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc{};
  base_ = static_cast<std::byte*>(p);
  // Guard page at the low end: stack overflow faults instead of silently
  // scribbling over the adjacent fiber's mapping.
  if (::mprotect(base_, guard_bytes_, PROT_NONE) != 0) {
    ::munmap(base_, map_bytes_);
    throw std::runtime_error("o2k::exec: mprotect(guard) failed");
  }
}

FiberStack::~FiberStack() {
  if (base_ != nullptr) ::munmap(base_, map_bytes_);
}

// ---------------------------------------------------------------------------
// Context fabrication and switching
// ---------------------------------------------------------------------------

void make_context(RawContext& ctx, const FiberStack& stack, ContextEntry entry) {
  auto top = reinterpret_cast<std::uintptr_t>(stack.top());
#if defined(__x86_64__)
  // Place the thunk's return-address slot at 8 mod 16 so that, inside the
  // thunk, `andq $-16, %rsp; callq` yields the ABI-required alignment.
  std::uintptr_t slot = (top - 8) & ~std::uintptr_t{15};  // 0 mod 16
  slot -= 8;                                              // 8 mod 16
  auto* frame = reinterpret_cast<void**>(slot - 7 * 8);
  // Low to high: [mxcsr|fcw] r15 r14 r13 r12 rbx rbp <ret>.
  auto* fpctl = reinterpret_cast<std::uint32_t*>(frame);
  fpctl[0] = 0x1F80;  // MXCSR: all exceptions masked, round-to-nearest
  reinterpret_cast<std::uint16_t*>(frame)[2] = 0x037F;  // x87 CW default
  frame[1] = nullptr;                                   // r15
  frame[2] = nullptr;                                   // r14
  frame[3] = nullptr;                                   // r13
  frame[4] = nullptr;                                   // r12
  frame[5] = reinterpret_cast<void*>(entry);            // rbx -> thunk target
  frame[6] = nullptr;                                   // rbp (chain end)
  frame[7] = reinterpret_cast<void*>(&o2k_ctx_entry_thunk);
  ctx.sp = frame;
#elif defined(__aarch64__)
  std::uintptr_t slot = top & ~std::uintptr_t{15};
  auto* frame = reinterpret_cast<void**>(slot - 160);
  std::memset(frame, 0, 160);
  frame[0] = reinterpret_cast<void*>(entry);  // x19 -> thunk target
  frame[11] = reinterpret_cast<void*>(&o2k_ctx_entry_thunk);  // x30
  ctx.sp = frame;
#endif
  ctx.asan_fake_stack = nullptr;
#if defined(O2K_EXEC_TSAN)
  ctx_release(ctx);
  ctx.tsan_fiber = __tsan_create_fiber(0);
#endif
}

void ctx_release(RawContext& ctx) {
#if defined(O2K_EXEC_TSAN)
  if (ctx.tsan_fiber != nullptr) __tsan_destroy_fiber(ctx.tsan_fiber);
  ctx.tsan_fiber = nullptr;
#else
  (void)ctx;
#endif
}

void ctx_bind_host_stack(RawContext& ctx) {
#if defined(O2K_EXEC_ASAN)
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) == 0) {
    void* addr = nullptr;
    std::size_t size = 0;
    if (pthread_attr_getstack(&attr, &addr, &size) == 0) {
      ctx.asan_stack_bottom = addr;
      ctx.asan_stack_size = size;
    }
    pthread_attr_destroy(&attr);
  }
#endif
#if defined(O2K_EXEC_TSAN)
  ctx.tsan_fiber = __tsan_get_current_fiber();
#endif
  (void)ctx;
}

void ctx_note_arrival(RawContext& self) {
#if defined(O2K_EXEC_ASAN)
  __sanitizer_finish_switch_fiber(self.asan_fake_stack, nullptr, nullptr);
#else
  (void)self;
#endif
}

void* ctx_swap_to(RawContext& from, RawContext& to, void* arg, const FiberStack* to_stack,
                  bool from_dying) {
#if defined(O2K_EXEC_ASAN)
  const void* bottom = to_stack != nullptr ? to_stack->bottom() : to.asan_stack_bottom;
  const std::size_t size = to_stack != nullptr ? to_stack->usable_bytes() : to.asan_stack_size;
  // A null fake-stack-save slot tells ASan the departing fiber is done for
  // good, releasing its fake-stack bookkeeping.
  __sanitizer_start_switch_fiber(from_dying ? nullptr : &from.asan_fake_stack, bottom, size);
#else
  (void)to_stack;
  (void)from_dying;
#endif
#if defined(O2K_EXEC_TSAN)
  __tsan_switch_to_fiber(to.tsan_fiber, 0);
#endif
  void* ret = o2k_ctx_swap(&from.sp, to.sp, arg);
  // Execution resumes here when somebody switches back into `from`.
  ctx_note_arrival(from);
  return ret;
}

}  // namespace o2k::exec
