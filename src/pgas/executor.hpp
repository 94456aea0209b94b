#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

namespace pgraph::pgas {

/// M:N cooperative executor behind Runtime::run.
///
/// The n SPMD threads of a Runtime run as ucontext fibers on
/// W = min(n, CPUs in the process's sched_getaffinity mask) persistent
/// worker threads; fiber i always runs on worker i mod W.  Workers and
/// fiber stacks (256 KiB each, with a PROT_NONE guard page below) are
/// created by the first run() and reused by every later one; between runs
/// the workers sleep on a futex word, and the destructor joins them.
///
/// Barrier: a fiber counts its arrival and yields to its worker's
/// scheduler.  The last arriver first runs the completion step (while
/// every other fiber is parked) and advances the generation word.  A
/// worker whose live fibers are all parked sleeps on the generation word
/// until it changes, then resumes its fibers in id order.  Fibers switch
/// only inside arrive_and_wait(), so the code between two barriers runs
/// uninterrupted on one OS thread.
///
/// Rules for code running on the fibers (one OS thread hosts several SPMD
/// threads; scripts/lint_spmd.py enforces the first two in src/):
///  - no thread_local state: sibling fibers share it;
///  - no blocking waits (sleeps, condition variables, spinning on a peer
///    across a superstep): a sibling on the same worker cannot run until
///    the waiter yields at a barrier;
///  - no barrier inside a catch handler: the C++ runtime keeps its stack of
///    caught exceptions per OS thread, and fibers sharing a worker would
///    interleave their handlers on it.
///
/// ASan and TSan builds annotate every fiber switch
/// (__sanitizer_start/finish_switch_fiber, __tsan_switch_to_fiber); the
/// executor is the same in every build.
class FiberExecutor {
 public:
  /// `complete` is the barrier completion step.
  FiberExecutor(int fibers, std::function<void()> complete);
  ~FiberExecutor();

  FiberExecutor(const FiberExecutor&) = delete;
  FiberExecutor& operator=(const FiberExecutor&) = delete;

  /// Run `body(i)` on fiber i for every i in [0, fibers) and return once
  /// every fiber has finished.  `body` must not throw.  Not reentrant.
  void run(const std::function<void(int)>& body);

  /// Fiber `i` arrives at the current barrier and parks until it
  /// completes.  Returns false when the barrier was aborted instead: a
  /// fiber dropped out of this run, so the completion step was skipped.
  bool arrive_and_wait(int i);
  /// The calling fiber leaves `body` by exception: it no longer counts
  /// toward any barrier of this run, and the barrier it would have
  /// reached aborts once every other fiber has arrived.
  void drop();
  /// True once a barrier of the current (or last) run aborted.
  bool aborted() const { return aborted_.load(std::memory_order_relaxed); }

 private:
  struct Fiber;
  struct Worker;

  void start();
  void shutdown() noexcept;
  void worker_main(Worker& wk, std::uint32_t seen);
  void drive(Worker& wk);
  void resume(Worker& wk, Fiber& fb);
  static void suspend(Fiber& fb);
  static void fiber_entry(unsigned hi, unsigned lo);
  void complete(std::uint32_t gen) noexcept;
  void wait_for_new_generation(std::uint32_t gen);

  const int n_;
  const std::function<void()> complete_step_;
  int nworkers_ = 0;
  std::unique_ptr<Fiber[]> fibers_;
  std::unique_ptr<Worker[]> workers_;
  unsigned char* stacks_ = nullptr;
  std::size_t stacks_bytes_ = 0;
  const std::function<void(int)>* body_ = nullptr;

  // Barrier state.  `gen_` is the futex word parked workers sleep on;
  // `remaining_` (own cache line: every arrival writes it) counts the
  // fibers still to arrive at, or drop out before, the current barrier.
  alignas(64) std::atomic<std::uint32_t> gen_{0};
  std::atomic<int> sleepers_{0};
  std::atomic<bool> dropped_{false};
  std::atomic<bool> aborted_{false};
  alignas(64) std::atomic<int> remaining_{0};

  // Run handoff: the caller bumps `job_` to start the workers; the last
  // worker to finish stores the job number into `done_`.
  alignas(64) std::atomic<std::uint32_t> job_{0};
  std::atomic<std::uint32_t> done_{0};
  std::atomic<int> busy_{0};
  std::atomic<bool> stop_{false};
};

}  // namespace pgraph::pgas
