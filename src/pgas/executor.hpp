#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

namespace pgraph::pgas {

/// M:N cooperative executor behind Runtime::run.
///
/// The n SPMD threads of a Runtime run as fibers (256 KiB mmap'd stacks,
/// each with a PROT_NONE guard page below it, made by the first run() and
/// reused by every later one).  W = min(n, CPUs in the process's
/// sched_getaffinity mask) workers drive them.  Worker 0 is whichever
/// thread calls run(); workers 1..W-1 are helper threads that the first
/// run() starts and that sleep on a futex word until a run engages them.
/// The destructor joins them.
///
/// Caller first: run() starts on the calling thread alone, which resumes
/// every fiber in id order, one superstep after another.  Once one
/// superstep has run on it for longer than an engage time (about 50 us,
/// see executor.cpp), it wakes the helpers, and from then until the run
/// ends fiber i runs on worker i mod W.  Only that engaging superstep moves
/// fibers between OS threads; after it each fiber stays pinned.  So a run
/// of short supersteps never wakes a helper, and a long one gets every
/// worker.
///
/// Barrier: a fiber marks itself parked and switches back to the
/// scheduler of the worker running it.  The scheduler counts the arrival
/// only then, after the fiber's frames are saved, so no worker can resume
/// a fiber before it has switched out.  The scheduler that counts the last
/// arrival runs the completion step (while every other fiber is parked)
/// and advances the generation word.  An engaged worker whose live fibers
/// are all parked sleeps on the generation word until it changes, then
/// resumes its fibers in id order.  Fibers switch only inside
/// arrive_and_wait(), so the code between two barriers runs uninterrupted
/// on one OS thread.
///
/// Rules for code running on the fibers (one OS thread hosts several SPMD
/// threads; scripts/lint_spmd.py enforces the first two in src/):
///  - no thread_local state: sibling fibers share it, and a thread may
///    continue on another OS thread after a barrier, so no pointer to
///    thread-local data (`errno` included) may be held across a barrier;
///  - no blocking waits (sleeps, condition variables, spinning on a peer
///    across a superstep): a sibling on the same worker cannot run until
///    the waiter yields at a barrier;
///  - no barrier inside a catch handler or in a destructor run by stack
///    unwinding: the C++ runtime keeps its caught and in-flight exceptions
///    per OS thread, and fibers sharing a worker would interleave their
///    entries there or carry them to another OS thread.
///
/// A fiber switch is a hand-written x86-64 routine that saves the
/// callee-saved registers, MXCSR and the x87 control word (no signal-mask
/// syscall, unlike glibc's swapcontext).  ASan and TSan builds annotate
/// every switch (__sanitizer_start/finish_switch_fiber,
/// __tsan_switch_to_fiber); the executor is the same in every build.
class FiberExecutor {
 public:
  /// `complete` is the barrier completion step.
  FiberExecutor(int fibers, std::function<void()> complete);
  ~FiberExecutor();

  FiberExecutor(const FiberExecutor&) = delete;
  FiberExecutor& operator=(const FiberExecutor&) = delete;

  /// Run `body(i)` on fiber i for every i in [0, fibers) and return once
  /// every fiber has finished.  The calling thread is worker 0.  `body`
  /// must not throw.  Not reentrant.
  void run(const std::function<void(int)>& body);

  /// Fiber `i` arrives at the current barrier and parks until it
  /// completes.  Returns false when the barrier was aborted instead: a
  /// fiber dropped out of this run, so the completion step was skipped.
  bool arrive_and_wait(int i);
  /// Fiber `i` is leaving `body` by exception: once it has finished it no
  /// longer counts toward any barrier of this run, and the barrier it
  /// would have reached aborts once every other fiber has arrived.
  void drop(int i);
  /// True once a barrier of the current (or last) run aborted.
  bool aborted() const { return aborted_.load(std::memory_order_relaxed); }

 private:
  struct Fiber;
  struct Worker;

  void start();
  void shutdown() noexcept;
  void helper_main(Worker& wk, std::uint32_t seen);
  void drive(Worker& wk);
  void engage();
  bool settle(Fiber& fb);
  void resume(Worker& wk, Fiber& fb);
  static void suspend(Fiber& fb);
  static void fiber_entry(Fiber* fb);
  void complete() noexcept;
  void wait_for_new_generation(std::uint32_t gen);

  const int n_;
  const std::function<void()> complete_step_;
  int nworkers_ = 0;  ///< W: the caller plus the helper threads
  std::unique_ptr<Fiber[]> fibers_;
  std::unique_ptr<Worker[]> workers_;
  unsigned char* stacks_ = nullptr;
  std::size_t stacks_bytes_ = 0;
  const std::function<void(int)>* body_ = nullptr;
  bool engaged_ = false;  ///< the current run has woken the helpers

  // Barrier state.  `gen_` is the futex word parked workers sleep on;
  // `remaining_` (own cache line: every arrival writes it) counts the
  // fibers still to arrive at, or drop out before, the current barrier.
  alignas(64) std::atomic<std::uint32_t> gen_{0};
  std::atomic<int> sleepers_{0};
  std::atomic<bool> dropped_{false};
  std::atomic<bool> aborted_{false};
  alignas(64) std::atomic<int> remaining_{0};

  // Helper handoff: engage() bumps `job_` to wake the helpers; the last
  // helper to finish its fibers stores the job number into `done_`.
  alignas(64) std::atomic<std::uint32_t> job_{0};
  std::atomic<std::uint32_t> done_{0};
  std::atomic<int> busy_{0};
  std::atomic<bool> stop_{false};
};

}  // namespace pgraph::pgas
