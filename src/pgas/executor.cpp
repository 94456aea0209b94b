#include "pgas/executor.hpp"

#include <linux/futex.h>
#include <sched.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdlib>
#include <new>
#include <system_error>
#include <thread>
#include <vector>

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

namespace pgraph::pgas {

namespace {

/// Usable stack per fiber.  The deepest fiber stack of the test suite is
/// about 8.4 KiB (40 KiB with ASan's redzones), so this leaves a wide
/// margin.
constexpr std::size_t kStackBytes = 256 * 1024;

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

}  // namespace

struct FiberExecutor::Fiber {
  enum class State : std::uint8_t { Ready, Parked, Done };

  ucontext_t uc{};
  FiberExecutor* ex = nullptr;
  Worker* wk = nullptr;
  int id = 0;
  unsigned char* stack = nullptr;  ///< lowest usable byte, above the guard
  State state = State::Done;
  std::uint32_t parked_gen = 0;  ///< generation a Parked fiber waits out
#ifdef PGRAPH_FIBER_ASAN
  void* fake_stack = nullptr;
#endif
#ifdef PGRAPH_FIBER_TSAN
  void* tsan = nullptr;
#endif
};

struct FiberExecutor::Worker {
  std::thread thread;
  ucontext_t sched{};  ///< the scheduler loop's context on this thread
  std::vector<Fiber*> fibers;  ///< in id order
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
  if (nworkers_ > 0) {
    stop_.store(true, std::memory_order_relaxed);
    job_.fetch_add(1, std::memory_order_seq_cst);
    futex_wake(job_, INT_MAX);
    for (int w = 0; w < nworkers_; ++w) workers_[w].thread.join();
    nworkers_ = 0;
    stop_.store(false, std::memory_order_relaxed);
  }
#ifdef PGRAPH_FIBER_TSAN
  if (fibers_)
    for (int i = 0; i < n_; ++i)
      if (fibers_[i].tsan != nullptr) __tsan_destroy_fiber(fibers_[i].tsan);
#endif
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
  // Workers wait for the job after the current one, whenever they start.
  const std::uint32_t job0 = job_.load(std::memory_order_relaxed);
  try {
    fibers_ = std::make_unique<Fiber[]>(static_cast<std::size_t>(n_));
    workers_ = std::make_unique<Worker[]>(static_cast<std::size_t>(w));
    for (int i = 0; i < n_; ++i) {
      Fiber& fb = fibers_[i];
      fb.ex = this;
      fb.id = i;
      fb.wk = &workers_[i % w];
      fb.stack = stacks_ + slot * static_cast<std::size_t>(i) + page;
      if (mprotect(fb.stack - page, page, PROT_NONE) != 0)
        throw std::system_error(errno, std::generic_category(),
                                "FiberExecutor: stack guard page");
      fb.wk->fibers.push_back(&fb);
#ifdef PGRAPH_FIBER_TSAN
      fb.tsan = __tsan_create_fiber(0);
#endif
    }
    for (int k = 0; k < w; ++k) {
      workers_[k].thread =
          std::thread([this, k, job0] { worker_main(workers_[k], job0); });
      nworkers_ = k + 1;
    }
  } catch (...) {
    shutdown();  // back to the never-started state; the next run retries
    throw;
  }
}

void FiberExecutor::run(const std::function<void(int)>& body) {
  if (!workers_) start();
  body_ = &body;
  remaining_.store(n_, std::memory_order_relaxed);
  dropped_.store(false, std::memory_order_relaxed);
  aborted_.store(false, std::memory_order_relaxed);
  busy_.store(nworkers_, std::memory_order_relaxed);
  const std::uint32_t job = job_.load(std::memory_order_relaxed) + 1;
  job_.store(job, std::memory_order_seq_cst);
  futex_wake(job_, INT_MAX);
  for (std::uint32_t d; (d = done_.load(std::memory_order_acquire)) != job;)
    futex_wait(done_, d);
  body_ = nullptr;
}

void FiberExecutor::worker_main(Worker& wk, std::uint32_t seen) {
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

void FiberExecutor::drive(Worker& wk) {
  for (Fiber* fb : wk.fibers) {
#ifdef PGRAPH_FIBER_ASAN
    // A finished fiber left its last frames' redzones poisoned.
    ASAN_UNPOISON_MEMORY_REGION(fb->stack, kStackBytes);
#endif
    getcontext(&fb->uc);
    fb->uc.uc_stack.ss_sp = fb->stack;
    fb->uc.uc_stack.ss_size = kStackBytes;
    fb->uc.uc_link = nullptr;
    const auto p = reinterpret_cast<std::uintptr_t>(fb);
    makecontext(&fb->uc, reinterpret_cast<void (*)()>(&fiber_entry), 2,
                static_cast<unsigned>(static_cast<std::uint64_t>(p) >> 32),
                static_cast<unsigned>(p & 0xffffffffu));
    fb->state = Fiber::State::Ready;
  }
  for (;;) {
    bool live = false;
    bool ran = false;
    std::uint32_t parked_at = 0;
    for (Fiber* fb : wk.fibers) {
      if (fb->state == Fiber::State::Done) continue;
      if (fb->state == Fiber::State::Parked &&
          fb->parked_gen == gen_.load(std::memory_order_acquire)) {
        live = true;
        parked_at = fb->parked_gen;
        continue;
      }
      resume(wk, *fb);
      ran = true;
      live = live || fb->state != Fiber::State::Done;
    }
    if (!live) return;
    // A pass that resumed nothing found every live fiber parked at the
    // same (current) generation.
    if (!ran) wait_for_new_generation(parked_at);
  }
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
  // The generation cannot move before this fiber arrives.
  const std::uint32_t g = gen_.load(std::memory_order_relaxed);
  fb.parked_gen = g;
  fb.state = Fiber::State::Parked;
  if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) complete(g);
  suspend(fb);
  return !aborted_.load(std::memory_order_relaxed);
}

void FiberExecutor::drop() {
  const std::uint32_t g = gen_.load(std::memory_order_relaxed);
  dropped_.store(true, std::memory_order_relaxed);
  if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) complete(g);
}

void FiberExecutor::complete(std::uint32_t gen) noexcept {
  if (dropped_.load(std::memory_order_relaxed))
    aborted_.store(true, std::memory_order_relaxed);
  else
    complete_step_();
  remaining_.store(n_, std::memory_order_relaxed);
  gen_.store(gen + 1, std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_seq_cst) > 0) futex_wake(gen_, INT_MAX);
}

// --- context switches ------------------------------------------------------

void FiberExecutor::resume(Worker& wk, Fiber& fb) {
#ifdef PGRAPH_FIBER_ASAN
  void* fake = nullptr;
  __sanitizer_start_switch_fiber(&fake, fb.stack, kStackBytes);
#endif
#ifdef PGRAPH_FIBER_TSAN
  __tsan_switch_to_fiber(fb.tsan, 0);
#endif
  swapcontext(&wk.sched, &fb.uc);
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
  swapcontext(&fb.uc, &wk.sched);
#ifdef PGRAPH_FIBER_ASAN
  __sanitizer_finish_switch_fiber(fb.fake_stack, &wk.stack_bottom,
                                  &wk.stack_size);
#endif
}

void FiberExecutor::fiber_entry(unsigned hi, unsigned lo) {
  Fiber& fb = *reinterpret_cast<Fiber*>(static_cast<std::uintptr_t>(
      (static_cast<std::uint64_t>(hi) << 32) | lo));
  Worker& wk = *fb.wk;
#ifdef PGRAPH_FIBER_ASAN
  __sanitizer_finish_switch_fiber(nullptr, &wk.stack_bottom, &wk.stack_size);
#endif
  // An exception escaping `body` would unwind off the bottom of the fiber
  // stack; the noexcept lambda turns that into std::terminate instead.
  [&]() noexcept { (*fb.ex->body_)(fb.id); }();
  fb.state = Fiber::State::Done;
#ifdef PGRAPH_FIBER_ASAN
  // Null save slot: this fiber's frames are gone for good.
  __sanitizer_start_switch_fiber(nullptr, wk.stack_bottom, wk.stack_size);
#endif
#ifdef PGRAPH_FIBER_TSAN
  __tsan_switch_to_fiber(wk.tsan, 0);
#endif
  setcontext(&wk.sched);
  std::abort();  // setcontext only returns on failure
}

}  // namespace pgraph::pgas
