#include "pgas/executor.hpp"

#include <linux/futex.h>
#include <sched.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdlib>
#include <new>
#include <system_error>
#include <thread>

#if defined(__SANITIZE_ADDRESS__)
#define PGRAPH_FIBER_ASAN 1
#endif
#if defined(__SANITIZE_THREAD__)
#define PGRAPH_FIBER_TSAN 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) && !defined(PGRAPH_FIBER_ASAN)
#define PGRAPH_FIBER_ASAN 1
#endif
#if __has_feature(thread_sanitizer) && !defined(PGRAPH_FIBER_TSAN)
#define PGRAPH_FIBER_TSAN 1
#endif
#endif
#ifdef PGRAPH_FIBER_ASAN
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef PGRAPH_FIBER_TSAN
#include <sanitizer/tsan_interface.h>
#endif

#if !defined(__x86_64__)
#error "FiberExecutor: port pgraph_fiber_switch and pgraph_fiber_start (src/pgas/executor.cpp) to this architecture"
#endif

// Fiber switch.  pgraph_fiber_switch(save, load) pushes the callee-saved
// registers, MXCSR and the x87 control word onto the current stack, stores
// the stack pointer into *save, loads `load` and pops the same frame from
// there.  The frame layout is the same on both sides, so the CFI below
// holds before and after the stack swap.  A new fiber's stack holds such a
// frame whose return address is pgraph_fiber_start, which calls r13(r12)
// and marks the end of the call chain for unwinders and debuggers.
extern "C" {
__attribute__((visibility("hidden"))) void pgraph_fiber_switch(void** save,
                                                               void* load);
__attribute__((visibility("hidden"))) void pgraph_fiber_start();
}

asm(R"(
        .text
        .p2align 4
        .globl  pgraph_fiber_switch
        .hidden pgraph_fiber_switch
        .type   pgraph_fiber_switch, @function
pgraph_fiber_switch:
        .cfi_startproc
        pushq   %rbp
        .cfi_adjust_cfa_offset 8
        .cfi_rel_offset %rbp, 0
        pushq   %rbx
        .cfi_adjust_cfa_offset 8
        .cfi_rel_offset %rbx, 0
        pushq   %r12
        .cfi_adjust_cfa_offset 8
        .cfi_rel_offset %r12, 0
        pushq   %r13
        .cfi_adjust_cfa_offset 8
        .cfi_rel_offset %r13, 0
        pushq   %r14
        .cfi_adjust_cfa_offset 8
        .cfi_rel_offset %r14, 0
        pushq   %r15
        .cfi_adjust_cfa_offset 8
        .cfi_rel_offset %r15, 0
        subq    $8, %rsp
        .cfi_adjust_cfa_offset 8
        stmxcsr (%rsp)
        fnstcw  4(%rsp)
        movq    %rsp, (%rdi)
        movq    %rsi, %rsp
        ldmxcsr (%rsp)
        fldcw   4(%rsp)
        addq    $8, %rsp
        .cfi_adjust_cfa_offset -8
        popq    %r15
        .cfi_adjust_cfa_offset -8
        .cfi_restore %r15
        popq    %r14
        .cfi_adjust_cfa_offset -8
        .cfi_restore %r14
        popq    %r13
        .cfi_adjust_cfa_offset -8
        .cfi_restore %r13
        popq    %r12
        .cfi_adjust_cfa_offset -8
        .cfi_restore %r12
        popq    %rbx
        .cfi_adjust_cfa_offset -8
        .cfi_restore %rbx
        popq    %rbp
        .cfi_adjust_cfa_offset -8
        .cfi_restore %rbp
        ret
        .cfi_endproc
        .size   pgraph_fiber_switch, .-pgraph_fiber_switch

        .p2align 4
        .globl  pgraph_fiber_start
        .hidden pgraph_fiber_start
        .type   pgraph_fiber_start, @function
pgraph_fiber_start:
        .cfi_startproc
        .cfi_undefined rip
        movq    %r12, %rdi
        callq   *%r13
        ud2
        .cfi_endproc
        .size   pgraph_fiber_start, .-pgraph_fiber_start
)");

namespace pgraph::pgas {

namespace {

/// Usable stack per fiber.  The deepest fiber stack of the test suite is
/// about 8.4 KiB (40 KiB with ASan's redzones), so this leaves a wide
/// margin.
constexpr std::size_t kStackBytes = 256 * 1024;

/// How long one superstep may run on the calling thread alone before the
/// helpers are woken.  Host work per superstep, measured with every fiber
/// on one thread: serve_mixed has 96% of its 436,603 supersteps under
/// 16 us, while cc_uniform and mst_rmat have about 70% of their
/// supersteps, and more than 99% of their host time, in supersteps of
/// 256 us or more.  Waking parked workers costs 7-14 us per barrier at
/// s=8 and 22-47 us at s=64 (pgas.barrier_us).  Only 1.7% of
/// serve_mixed's supersteps fall between 32 and 256 us, and the solves
/// engage in their first large superstep for any value in that range.
constexpr std::chrono::microseconds kEngageAfter{50};

using Clock = std::chrono::steady_clock;

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    return std::max(1, CPU_COUNT(&set));
  return std::max(1u, std::thread::hardware_concurrency());
}

std::uint32_t* futex_word(std::atomic<std::uint32_t>& a) {
  static_assert(sizeof(std::atomic<std::uint32_t>) == sizeof(std::uint32_t));
  return reinterpret_cast<std::uint32_t*>(&a);
}

/// Sleep while `a` still holds `expected` (spurious returns are fine: every
/// caller re-checks in a loop).
void futex_wait(std::atomic<std::uint32_t>& a, std::uint32_t expected) {
  syscall(SYS_futex, futex_word(a), FUTEX_WAIT_PRIVATE, expected, nullptr,
          nullptr, 0);
}

void futex_wake(std::atomic<std::uint32_t>& a, int count) {
  syscall(SYS_futex, futex_word(a), FUTEX_WAKE_PRIVATE, count, nullptr,
          nullptr, 0);
}

/// The calling thread's MXCSR (low half) and x87 control word (high half),
/// in the layout of pgraph_fiber_switch's frame.
std::uint64_t fp_control() {
  std::uint32_t mxcsr = 0;
  std::uint16_t cw = 0;
  asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(cw));
  return mxcsr | (static_cast<std::uint64_t>(cw) << 32);
}

}  // namespace

struct FiberExecutor::Fiber {
  enum class State : std::uint8_t { Ready, Parked, Done };

  void* sp = nullptr;  ///< saved stack pointer while switched out
  FiberExecutor* ex = nullptr;
  Worker* wk = nullptr;  ///< the worker that last resumed this fiber
  int id = 0;
  unsigned char* stack = nullptr;  ///< lowest usable byte, above the guard
  State state = State::Done;
  bool dropped = false;          ///< left `body` by exception (drop())
  std::uint32_t parked_gen = 0;  ///< generation a Parked fiber waits out
#ifdef PGRAPH_FIBER_ASAN
  void* fake_stack = nullptr;
#endif
#ifdef PGRAPH_FIBER_TSAN
  void* tsan = nullptr;
#endif
};

struct FiberExecutor::Worker {
  std::thread thread;    ///< none for worker 0, the thread calling run()
  int index = 0;         ///< w: drives fibers w, w + W, ... once engaged
  void* sched = nullptr;  ///< the scheduler's stack pointer while switched out
#ifdef PGRAPH_FIBER_ASAN
  const void* stack_bottom = nullptr;  ///< this thread's own stack
  std::size_t stack_size = 0;
#endif
#ifdef PGRAPH_FIBER_TSAN
  void* tsan = nullptr;
#endif
};

FiberExecutor::FiberExecutor(int fibers, std::function<void()> complete)
    : n_(fibers), complete_step_(std::move(complete)) {}

FiberExecutor::~FiberExecutor() { shutdown(); }

void FiberExecutor::shutdown() noexcept {
  if (workers_) {
    stop_.store(true, std::memory_order_relaxed);
    job_.fetch_add(1, std::memory_order_seq_cst);
    futex_wake(job_, INT_MAX);
    for (int w = 1; w < nworkers_; ++w)
      if (workers_[w].thread.joinable()) workers_[w].thread.join();
    stop_.store(false, std::memory_order_relaxed);
  }
#ifdef PGRAPH_FIBER_TSAN
  if (fibers_)
    for (int i = 0; i < n_; ++i)
      if (fibers_[i].tsan != nullptr) __tsan_destroy_fiber(fibers_[i].tsan);
#endif
  nworkers_ = 0;
  workers_.reset();
  fibers_.reset();
  if (stacks_ != nullptr) munmap(stacks_, stacks_bytes_);
  stacks_ = nullptr;
}

void FiberExecutor::start() {
  const std::size_t page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  const std::size_t slot = page + kStackBytes;
  stacks_bytes_ = slot * static_cast<std::size_t>(n_);
  void* mem = mmap(nullptr, stacks_bytes_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                   -1, 0);
  if (mem == MAP_FAILED) throw std::bad_alloc();
  stacks_ = static_cast<unsigned char*>(mem);

  const int w = std::min(n_, usable_cpus());
  // Helpers wait for the job after the current one, whenever they start.
  const std::uint32_t job0 = job_.load(std::memory_order_relaxed);
  try {
    fibers_ = std::make_unique<Fiber[]>(static_cast<std::size_t>(n_));
    workers_ = std::make_unique<Worker[]>(static_cast<std::size_t>(w));
    nworkers_ = w;
    for (int i = 0; i < n_; ++i) {
      Fiber& fb = fibers_[i];
      fb.ex = this;
      fb.id = i;
      fb.stack = stacks_ + slot * static_cast<std::size_t>(i) + page;
      if (mprotect(fb.stack - page, page, PROT_NONE) != 0)
        throw std::system_error(errno, std::generic_category(),
                                "FiberExecutor: stack guard page");
#ifdef PGRAPH_FIBER_TSAN
      fb.tsan = __tsan_create_fiber(0);
#endif
    }
    for (int k = 0; k < w; ++k) workers_[k].index = k;
    for (int k = 1; k < w; ++k)
      workers_[k].thread =
          std::thread([this, k, job0] { helper_main(workers_[k], job0); });
  } catch (...) {
    shutdown();  // back to the never-started state; the next run retries
    throw;
  }
}

void FiberExecutor::run(const std::function<void(int)>& body) {
  if (!workers_) start();
  Worker& caller = workers_[0];
#ifdef PGRAPH_FIBER_TSAN
  caller.tsan = __tsan_get_current_fiber();
#endif
  body_ = &body;
  engaged_ = false;
  remaining_.store(n_, std::memory_order_relaxed);
  dropped_.store(false, std::memory_order_relaxed);
  aborted_.store(false, std::memory_order_relaxed);
  // Every fiber starts from a fresh frame at the top of its stack, laid out
  // as pgraph_fiber_switch pops it: [0] MXCSR and x87 control word (the
  // caller's), [1..6] r15 r14 r13 r12 rbx rbp, [7] return address, and
  // [8..9] padding that leaves pgraph_fiber_start 16-byte aligned.
  const std::uint64_t fp = fp_control();
  for (int i = 0; i < n_; ++i) {
    Fiber& fb = fibers_[i];
#ifdef PGRAPH_FIBER_ASAN
    // A finished fiber left its last frames' redzones poisoned.
    ASAN_UNPOISON_MEMORY_REGION(fb.stack, kStackBytes);
#endif
    auto* frame =
        reinterpret_cast<std::uint64_t*>(fb.stack + kStackBytes) - 10;
    std::fill(frame, frame + 10, 0);
    frame[0] = fp;
    frame[3] = reinterpret_cast<std::uint64_t>(&fiber_entry);  // r13
    frame[4] = reinterpret_cast<std::uint64_t>(&fb);           // r12
    frame[7] = reinterpret_cast<std::uint64_t>(&pgraph_fiber_start);
    fb.sp = frame;
    fb.state = Fiber::State::Ready;
    fb.dropped = false;
  }
  drive(caller);
  if (engaged_) {
    const std::uint32_t job = job_.load(std::memory_order_relaxed);
    for (std::uint32_t d; (d = done_.load(std::memory_order_acquire)) != job;)
      futex_wait(done_, d);
  }
  body_ = nullptr;
}

void FiberExecutor::helper_main(Worker& wk, std::uint32_t seen) {
#ifdef PGRAPH_FIBER_TSAN
  wk.tsan = __tsan_get_current_fiber();
#endif
  for (;;) {
    std::uint32_t job;
    while ((job = job_.load(std::memory_order_acquire)) == seen)
      futex_wait(job_, seen);
    seen = job;
    if (stop_.load(std::memory_order_relaxed)) return;
    drive(wk);
    if (busy_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      done_.store(job, std::memory_order_release);
      futex_wake(done_, 1);
    }
  }
}

void FiberExecutor::engage() {
  engaged_ = true;
  busy_.store(nworkers_ - 1, std::memory_order_relaxed);
  // Release: the helpers see every fiber as the caller left it.
  job_.fetch_add(1, std::memory_order_seq_cst);
  futex_wake(job_, INT_MAX);
}

void FiberExecutor::drive(Worker& wk) {
  // The caller starts alone (stride 1) and times each superstep; helpers
  // only run once engaged.
  int stride = wk.index == 0 && !engaged_ ? 1 : nworkers_;
  Clock::time_point superstep_start = Clock::now();
  for (;;) {
    bool live = false;
    bool ran = false;
    std::uint32_t parked_at = 0;
    for (int i = wk.index; i < n_; i += stride) {
      Fiber& fb = fibers_[i];
      if (fb.state == Fiber::State::Done) continue;
      if (fb.state == Fiber::State::Parked &&
          fb.parked_gen == gen_.load(std::memory_order_acquire)) {
        live = true;
        parked_at = fb.parked_gen;
        continue;
      }
      resume(wk, fb);
      ran = true;
      live = live || fb.state != Fiber::State::Done;
      const bool completed = settle(fb);
      if (stride == 1 && nworkers_ > 1) {
        const Clock::time_point now = Clock::now();
        if (completed) {
          superstep_start = now;
        } else if (now - superstep_start > kEngageAfter) {
          engage();
          stride = nworkers_;
          live = true;
          break;  // start over on this worker's own fibers
        }
      }
    }
    if (!live) return;
    // A pass that resumed nothing found every live fiber parked at the
    // same (current) generation.
    if (!ran) wait_for_new_generation(parked_at);
  }
}

bool FiberExecutor::settle(Fiber& fb) {
  // A fiber that finished without dropping out already passed the run's
  // final barrier.
  if (fb.state != Fiber::State::Parked && !fb.dropped) return false;
  if (remaining_.fetch_sub(1, std::memory_order_acq_rel) != 1) return false;
  complete();
  return true;
}

void FiberExecutor::wait_for_new_generation(std::uint32_t gen) {
  // Dekker pairing with complete(): either this load sees the new
  // generation or complete() sees the sleeper and wakes it.
  sleepers_.fetch_add(1, std::memory_order_seq_cst);
  while (gen_.load(std::memory_order_seq_cst) == gen) futex_wait(gen_, gen);
  sleepers_.fetch_sub(1, std::memory_order_relaxed);
}

bool FiberExecutor::arrive_and_wait(int i) {
  Fiber& fb = fibers_[i];
  // The generation cannot move before the scheduler counts this arrival.
  fb.parked_gen = gen_.load(std::memory_order_relaxed);
  fb.state = Fiber::State::Parked;
  suspend(fb);
  return !aborted_.load(std::memory_order_relaxed);
}

void FiberExecutor::drop(int i) {
  fibers_[i].dropped = true;
  dropped_.store(true, std::memory_order_relaxed);
}

void FiberExecutor::complete() noexcept {
  const std::uint32_t gen = gen_.load(std::memory_order_relaxed);
  if (dropped_.load(std::memory_order_relaxed))
    aborted_.store(true, std::memory_order_relaxed);
  else
    complete_step_();
  remaining_.store(n_, std::memory_order_relaxed);
  gen_.store(gen + 1, std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_seq_cst) > 0) futex_wake(gen_, INT_MAX);
}

// --- context switches ------------------------------------------------------
//
// A fiber may be resumed by a different worker than the one it last
// switched out to (only in the superstep that engages the helpers), so
// `fb.wk` is set by every resume and read again after every switch.

void FiberExecutor::resume(Worker& wk, Fiber& fb) {
  fb.wk = &wk;
#ifdef PGRAPH_FIBER_ASAN
  void* fake = nullptr;
  __sanitizer_start_switch_fiber(&fake, fb.stack, kStackBytes);
#endif
#ifdef PGRAPH_FIBER_TSAN
  __tsan_switch_to_fiber(fb.tsan, 0);
#endif
  pgraph_fiber_switch(&wk.sched, fb.sp);
#ifdef PGRAPH_FIBER_ASAN
  __sanitizer_finish_switch_fiber(fake, nullptr, nullptr);
#endif
}

void FiberExecutor::suspend(Fiber& fb) {
  Worker& wk = *fb.wk;
#ifdef PGRAPH_FIBER_ASAN
  __sanitizer_start_switch_fiber(&fb.fake_stack, wk.stack_bottom,
                                 wk.stack_size);
#endif
#ifdef PGRAPH_FIBER_TSAN
  __tsan_switch_to_fiber(wk.tsan, 0);
#endif
  pgraph_fiber_switch(&fb.sp, wk.sched);
#ifdef PGRAPH_FIBER_ASAN
  Worker& now = *fb.wk;
  __sanitizer_finish_switch_fiber(fb.fake_stack, &now.stack_bottom,
                                  &now.stack_size);
#endif
}

void FiberExecutor::fiber_entry(Fiber* self) {
  Fiber& fb = *self;
#ifdef PGRAPH_FIBER_ASAN
  __sanitizer_finish_switch_fiber(nullptr, &fb.wk->stack_bottom,
                                  &fb.wk->stack_size);
#endif
  // An exception escaping `body` would unwind off the bottom of the fiber
  // stack; the noexcept lambda turns that into std::terminate instead.
  [&]() noexcept { (*fb.ex->body_)(fb.id); }();
  fb.state = Fiber::State::Done;
  Worker& wk = *fb.wk;
#ifdef PGRAPH_FIBER_ASAN
  // Null save slot: this fiber's frames are gone for good.
  __sanitizer_start_switch_fiber(nullptr, wk.stack_bottom, wk.stack_size);
#endif
#ifdef PGRAPH_FIBER_TSAN
  __tsan_switch_to_fiber(wk.tsan, 0);
#endif
  pgraph_fiber_switch(&fb.sp, wk.sched);
  std::abort();  // a finished fiber is never resumed
}

}  // namespace pgraph::pgas
